"""Tweet text cleaning and a small lexicon-based sentiment scorer.

Cleaning lowercases, expands contractions, strips URLs and user mentions,
keeps hashtag words without the marker, and squeezes everything else down
to alphanumeric tokens. Polarity scores in [-1, 1] are discretized into
five buckets used as count features downstream.
"""
from __future__ import annotations

import enum
import re

CONTRACTIONS: dict[str, str] = {
    "ain't": "is not",
    "aren't": "are not",
    "can't": "cannot",
    "could've": "could have",
    "couldn't": "could not",
    "didn't": "did not",
    "doesn't": "does not",
    "don't": "do not",
    "hadn't": "had not",
    "hasn't": "has not",
    "haven't": "have not",
    "he'd": "he would",
    "he'll": "he will",
    "he's": "he is",
    "here's": "here is",
    "how's": "how is",
    "i'd": "i would",
    "i'll": "i will",
    "i'm": "i am",
    "i've": "i have",
    "isn't": "is not",
    "it'd": "it would",
    "it'll": "it will",
    "it's": "it is",
    "let's": "let us",
    "mightn't": "might not",
    "mustn't": "must not",
    "shan't": "shall not",
    "she'd": "she would",
    "she'll": "she will",
    "she's": "she is",
    "should've": "should have",
    "shouldn't": "should not",
    "that's": "that is",
    "there's": "there is",
    "they'd": "they would",
    "they'll": "they will",
    "they're": "they are",
    "they've": "they have",
    "wasn't": "was not",
    "we'd": "we would",
    "we'll": "we will",
    "we're": "we are",
    "we've": "we have",
    "weren't": "were not",
    "what's": "what is",
    "where's": "where is",
    "who's": "who is",
    "won't": "will not",
    "would've": "would have",
    "wouldn't": "would not",
    "y'all": "you all",
    "you'd": "you would",
    "you'll": "you will",
    "you're": "you are",
    "you've": "you have",
}

_CONTRACTION_RE = re.compile(
    r"\b(" + "|".join(re.escape(k) for k in sorted(CONTRACTIONS, key=len, reverse=True)) + r")\b"
)
_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#(\w+)")
_NON_ALNUM_RE = re.compile(r"[^a-z0-9\s]")
_WHITESPACE_RE = re.compile(r"\s+")
# Text that is already clean: every step below leaves it unchanged.
_CLEAN_RE = re.compile(r"[a-z0-9]+(?: [a-z0-9]+)*")


def clean_tweet_text(text: str) -> str:
    """Normalize raw tweet text to lowercase alphanumeric words.

    Mentions are dropped entirely (they name accounts, not content);
    hashtags keep their word. The result is single-space separated with
    no leading or trailing whitespace.
    """
    if _CLEAN_RE.fullmatch(text):
        return text
    text = text.lower()
    text = _CONTRACTION_RE.sub(lambda m: CONTRACTIONS[m.group(1)], text)
    text = _URL_RE.sub(" ", text)
    text = _MENTION_RE.sub(" ", text)
    text = _HASHTAG_RE.sub(r"\1", text)
    text = _NON_ALNUM_RE.sub(" ", text)
    return _WHITESPACE_RE.sub(" ", text).strip()


class SentimentBucket(str, enum.Enum):
    STRONG_NEGATIVE = "strong_negative"
    WEAK_NEGATIVE = "weak_negative"
    NEUTRAL = "neutral"
    WEAK_POSITIVE = "weak_positive"
    STRONG_POSITIVE = "strong_positive"


def bucket_sentiment(polarity: float) -> SentimentBucket:
    """Map a polarity in [-1, 1] to one of five buckets.

    The neutral band [-0.1, 0.1] is closed on both ends; the outer bands
    absorb their extreme endpoints. Values outside [-1, 1] are rejected.
    """
    if not -1.0 <= polarity <= 1.0:
        raise ValueError(f"polarity out of range: {polarity!r}")
    if polarity < -0.5:
        return SentimentBucket.STRONG_NEGATIVE
    if polarity < -0.1:
        return SentimentBucket.WEAK_NEGATIVE
    if polarity <= 0.1:
        return SentimentBucket.NEUTRAL
    if polarity <= 0.5:
        return SentimentBucket.WEAK_POSITIVE
    return SentimentBucket.STRONG_POSITIVE


POSITIVE_WORDS: frozenset[str] = frozenset({
    "accomplish", "achievement", "admire", "adore", "advance", "amazing",
    "appreciate", "approve", "awesome", "beautiful", "benefit", "best",
    "better", "bless", "boost", "bravo", "bright", "brilliant", "calm",
    "celebrate", "champion", "cheer", "clean", "commend", "confident",
    "congrats", "congratulations", "cool", "courteous", "delight",
    "dependable", "easy", "effective", "efficient", "elegant", "enjoy",
    "excellent", "exceptional", "excite", "excited", "exciting",
    "fabulous", "fantastic", "fast", "favorite", "fine", "flawless",
    "fortunate", "friendly", "fun", "generous", "glad", "good", "grateful",
    "great", "happy", "helpful", "honest", "impressive", "improve",
    "improved", "innovative", "inspire", "joy", "kind", "like", "love",
    "loyal", "nice", "outstanding", "perfect", "pleasant", "pleased",
    "praise", "professional", "proud", "recommend", "reliable", "resolve",
    "respect", "reward", "safe", "satisfied", "secure", "smooth", "solid",
    "stellar", "strong", "succeed", "success", "successful", "superb",
    "support", "terrific", "thank", "thanks", "thrilled", "trust",
    "trustworthy", "upgrade", "useful", "valuable", "win", "winner",
    "wonderful", "worthy", "wow",
})

NEGATIVE_WORDS: frozenset[str] = frozenset({
    "abuse", "afraid", "angry", "annoy", "annoyed", "annoying", "attack",
    "awful", "bad", "blame", "breach", "broke", "broken", "bug", "cheat",
    "complain", "complaint", "compromise", "compromised", "corrupt",
    "crash", "crime", "criminal", "crisis", "danger", "dangerous", "dead",
    "deceive", "defect", "delay", "deny", "disappoint", "disappointed",
    "disappointing", "disaster", "dishonest", "dislike", "down",
    "downtime", "dreadful", "error", "exploit", "expose", "exposed",
    "fail", "failed", "failure", "fake", "fault", "fear", "fired", "flaw",
    "fraud", "fraudulent", "garbage", "hack", "hacked", "harm", "hate",
    "horrible", "hurt", "incident", "incompetent", "insecure", "lawsuit",
    "leak", "leaked", "liar", "lie", "lost", "malware", "mess", "mistake",
    "nasty", "negligent", "outage", "outrage", "pathetic", "phishing",
    "poor", "problem", "ransom", "ransomware", "refund", "risk", "rude",
    "sad", "scam", "scandal", "shady", "shame", "slow", "sorry", "steal",
    "stolen", "sue", "suspicious", "terrible", "theft", "threat", "ugly",
    "unhappy", "unreliable", "unsafe", "upset", "useless", "victim",
    "violate", "violation", "vulnerability", "vulnerable", "warning",
    "weak", "worried", "worry", "worst", "wrong",
})


def default_polarity(text: str) -> float:
    """Score cleaned text as (positive hits - negative hits) / token count.

    Bounded in [-1, 1] because each token contributes at most one hit.
    Empty or lexicon-free text scores 0.0.
    """
    tokens = clean_tweet_text(text).split()
    if not tokens:
        return 0.0
    score = sum(
        (token in POSITIVE_WORDS) - (token in NEGATIVE_WORDS) for token in tokens
    )
    return score / len(tokens)
