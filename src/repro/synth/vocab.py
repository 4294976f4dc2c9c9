"""Domain vocabularies for the synthetic-world generator.

A :class:`CategoryVocabulary` describes one entity category (cameras,
notebooks, flights, …): the mediated attributes entities of that
category have, how true values for each attribute are drawn, and the
*name dialects* sources use for each attribute — the raw material for
schema heterogeneity.

The built-in catalog covers product categories (echoing the
web-extraction studies the tutorial draws on) plus the books and
flights domains used by the canonical fusion experiments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.errors import ConfigurationError

__all__ = [
    "AttributeSpec",
    "CategoryVocabulary",
    "category",
]


@dataclass(frozen=True)
class AttributeSpec:
    """How one mediated attribute behaves.

    Parameters
    ----------
    name:
        Canonical (mediated) attribute name.
    dialects:
        Alternative names sources may use, *including* a few that are
        plain renamings and a few that are abbreviations. The canonical
        name itself is always an admissible dialect.
    kind:
        ``"categorical"`` draws from ``values``; ``"numeric"`` draws
        uniformly in ``[low, high]`` with ``digits`` decimals and
        renders with ``unit`` (alternate units in ``alt_units`` are
        applied by source formatting); ``"identifier"`` synthesizes a
        per-entity alphanumeric code.
    values:
        Categorical value pool (categorical kind only).
    low, high, digits, unit, alt_units:
        Numeric parameters (numeric kind only). ``alt_units`` are units
        convertible from ``unit`` via :mod:`repro.text.normalize`.
    tail:
        Tail attributes are rendered by few sources (they model the
        long tail of attribute names).
    """

    name: str
    dialects: tuple[str, ...]
    kind: str = "categorical"
    values: tuple[str, ...] = ()
    low: float = 0.0
    high: float = 1.0
    digits: int = 1
    unit: str | None = None
    alt_units: tuple[str, ...] = ()
    tail: bool = False

    def __post_init__(self) -> None:
        if self.kind not in {"categorical", "numeric", "identifier"}:
            raise ConfigurationError(f"unknown attribute kind {self.kind!r}")
        if self.kind == "categorical" and not self.values:
            raise ConfigurationError(
                f"categorical attribute {self.name!r} needs values"
            )
        if self.kind == "numeric" and self.low >= self.high:
            raise ConfigurationError(
                f"numeric attribute {self.name!r} needs low < high"
            )

    def draw_true_value(self, rng: random.Random, entity_index: int) -> str:
        """Draw this attribute's true value for one entity."""
        if self.kind == "categorical":
            return rng.choice(self.values)
        if self.kind == "numeric":
            value = rng.uniform(self.low, self.high)
            rendered = f"{value:.{self.digits}f}"
            return f"{rendered} {self.unit}" if self.unit else rendered
        # identifier: a stable per-entity alphanumeric code
        prefix = "".join(rng.choice("ABCDEFGHJKLMNPQRSTUVWXYZ") for _ in range(3))
        return f"{prefix}-{entity_index:06d}"


@dataclass(frozen=True)
class CategoryVocabulary:
    """All attribute specs of one entity category."""

    name: str
    brands: tuple[str, ...]
    attributes: tuple[AttributeSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [spec.name for spec in self.attributes]
        if len(names) != len(set(names)):
            raise ConfigurationError(
                f"duplicate attribute names in category {self.name!r}"
            )

    def head_attributes(self) -> tuple[AttributeSpec, ...]:
        """Attributes most sources render."""
        return tuple(spec for spec in self.attributes if not spec.tail)

    def tail_attributes(self) -> tuple[AttributeSpec, ...]:
        """Attributes only a few sources render."""
        return tuple(spec for spec in self.attributes if spec.tail)

    def spec(self, attribute_name: str) -> AttributeSpec:
        """The spec for a mediated attribute name."""
        for spec in self.attributes:
            if spec.name == attribute_name:
                return spec
        raise ConfigurationError(
            f"category {self.name!r} has no attribute {attribute_name!r}"
        )


_COLORS = (
    "black", "white", "silver", "gray", "red", "blue", "green",
    "gold", "pink", "orange",
)

_CAMERA = CategoryVocabulary(
    name="camera",
    brands=(
        "canon", "nikon", "sony", "fujifilm", "olympus", "panasonic",
        "pentax", "leica", "kodak", "samsung",
    ),
    attributes=(
        AttributeSpec(
            "product id", ("product id", "sku", "mpn", "model number", "item code"),
            kind="identifier",
        ),
        AttributeSpec(
            "brand", ("brand", "manufacturer", "make", "producer"),
            values=(
                "canon", "nikon", "sony", "fujifilm", "olympus",
                "panasonic", "pentax", "leica", "kodak", "samsung",
            ),
        ),
        AttributeSpec(
            "color", ("color", "colour", "body color", "finish"),
            values=_COLORS,
        ),
        AttributeSpec(
            "resolution", ("resolution", "megapixels", "mp", "effective pixels"),
            kind="numeric", low=8, high=60, digits=1, unit=None,
        ),
        AttributeSpec(
            "screen size",
            ("screen size", "display size", "lcd size", "monitor size"),
            kind="numeric", low=2.5, high=4.0, digits=1, unit="in",
            alt_units=("cm",),
        ),
        AttributeSpec(
            "weight", ("weight", "item weight", "body weight", "mass"),
            kind="numeric", low=200, high=1500, digits=0, unit="g",
            alt_units=("kg", "oz"),
        ),
        AttributeSpec(
            "sensor type", ("sensor type", "sensor", "imaging sensor"),
            values=("cmos", "ccd", "bsi cmos", "foveon"),
        ),
        AttributeSpec(
            "optical zoom", ("optical zoom", "zoom", "zoom ratio"),
            kind="numeric", low=1, high=80, digits=0, unit=None, tail=True,
        ),
        AttributeSpec(
            "viewfinder", ("viewfinder", "viewfinder type", "finder"),
            values=("electronic", "optical", "hybrid", "none"), tail=True,
        ),
        AttributeSpec(
            "battery life", ("battery life", "shots per charge", "cipa rating"),
            kind="numeric", low=200, high=1200, digits=0, unit=None, tail=True,
        ),
    ),
)

_NOTEBOOK = CategoryVocabulary(
    name="notebook",
    brands=(
        "lenovo", "dell", "hp", "asus", "acer", "apple", "msi",
        "toshiba", "samsung", "lg",
    ),
    attributes=(
        AttributeSpec(
            "product id", ("product id", "sku", "mpn", "part number", "model code"),
            kind="identifier",
        ),
        AttributeSpec(
            "brand", ("brand", "manufacturer", "make", "vendor"),
            values=(
                "lenovo", "dell", "hp", "asus", "acer", "apple", "msi",
                "toshiba", "samsung", "lg",
            ),
        ),
        AttributeSpec(
            "screen size",
            ("screen size", "display", "display size", "screen diagonal"),
            kind="numeric", low=11.0, high=17.5, digits=1, unit="in",
            alt_units=("cm",),
        ),
        AttributeSpec(
            "memory", ("memory", "ram", "installed ram", "system memory"),
            values=("4 gb", "8 gb", "16 gb", "32 gb", "64 gb"),
        ),
        AttributeSpec(
            "storage", ("storage", "hard drive", "ssd capacity", "disk size"),
            values=("256 gb", "512 gb", "1 tb", "2 tb"),
        ),
        AttributeSpec(
            "cpu speed", ("cpu speed", "processor speed", "clock speed"),
            kind="numeric", low=1.1, high=5.4, digits=1, unit="ghz",
            alt_units=("mhz",),
        ),
        AttributeSpec(
            "weight", ("weight", "item weight", "travel weight"),
            kind="numeric", low=900, high=3500, digits=0, unit="g",
            alt_units=("kg", "lb"),
        ),
        AttributeSpec(
            "color", ("color", "colour", "chassis color"), values=_COLORS,
        ),
        AttributeSpec(
            "battery life", ("battery life", "battery runtime", "run time"),
            kind="numeric", low=4, high=24, digits=0, unit=None, tail=True,
        ),
        AttributeSpec(
            "keyboard layout", ("keyboard layout", "keyboard", "layout"),
            values=("qwerty us", "qwerty uk", "qwertz", "azerty"), tail=True,
        ),
        AttributeSpec(
            "ports", ("ports", "usb ports", "port count"),
            kind="numeric", low=1, high=6, digits=0, unit=None, tail=True,
        ),
    ),
)

_HEADPHONE = CategoryVocabulary(
    name="headphone",
    brands=(
        "bose", "sony", "sennheiser", "akg", "audio-technica",
        "beyerdynamic", "jbl", "shure", "skullcandy", "philips",
    ),
    attributes=(
        AttributeSpec(
            "product id", ("product id", "sku", "mpn", "model"),
            kind="identifier",
        ),
        AttributeSpec(
            "brand", ("brand", "manufacturer", "make"),
            values=(
                "bose", "sony", "sennheiser", "akg", "audio-technica",
                "beyerdynamic", "jbl", "shure", "skullcandy", "philips",
            ),
        ),
        AttributeSpec(
            "form factor", ("form factor", "type", "wearing style", "design"),
            values=("over-ear", "on-ear", "in-ear", "earbud"),
        ),
        AttributeSpec(
            "impedance", ("impedance", "nominal impedance", "ohms"),
            kind="numeric", low=16, high=600, digits=0, unit=None,
        ),
        AttributeSpec(
            "weight", ("weight", "item weight", "net weight"),
            kind="numeric", low=10, high=450, digits=0, unit="g",
            alt_units=("oz",),
        ),
        AttributeSpec(
            "color", ("color", "colour", "shade"), values=_COLORS,
        ),
        AttributeSpec(
            "connectivity", ("connectivity", "connection", "interface"),
            values=("wired", "bluetooth", "wireless", "usb-c"),
        ),
        AttributeSpec(
            "driver size", ("driver size", "driver diameter", "transducer size"),
            kind="numeric", low=6, high=70, digits=0, unit="mm",
            alt_units=("cm",), tail=True,
        ),
        AttributeSpec(
            "noise cancelling", ("noise cancelling", "anc", "noise reduction"),
            values=("yes", "no", "adaptive"), tail=True,
        ),
    ),
)

_BOOK = CategoryVocabulary(
    name="book",
    brands=(
        "penguin", "harpercollins", "randomhouse", "macmillan", "hachette",
        "simon-schuster", "wiley", "springer", "oreilly", "mit-press",
    ),
    attributes=(
        AttributeSpec(
            "isbn", ("isbn", "isbn 13", "isbn13", "ean"), kind="identifier",
        ),
        AttributeSpec(
            "publisher", ("publisher", "imprint", "publishing house"),
            values=(
                "penguin", "harpercollins", "randomhouse", "macmillan",
                "hachette", "simon-schuster", "wiley", "springer",
                "oreilly", "mit-press",
            ),
        ),
        AttributeSpec(
            "format", ("format", "binding", "cover type"),
            values=("hardcover", "paperback", "ebook", "audiobook"),
        ),
        AttributeSpec(
            "pages", ("pages", "page count", "number of pages", "length"),
            kind="numeric", low=80, high=1200, digits=0, unit=None,
        ),
        AttributeSpec(
            "year", ("year", "publication year", "published", "copyright year"),
            kind="numeric", low=1960, high=2013, digits=0, unit=None,
        ),
        AttributeSpec(
            "language", ("language", "text language", "lang"),
            values=("english", "spanish", "french", "german", "italian"),
        ),
        AttributeSpec(
            "edition", ("edition", "edition number", "ed"),
            values=("1st", "2nd", "3rd", "4th", "revised"), tail=True,
        ),
    ),
)

_FLIGHT = CategoryVocabulary(
    name="flight",
    brands=(
        "aa", "ua", "dl", "wn", "b6", "as", "nk", "f9", "ha", "g4",
    ),
    attributes=(
        AttributeSpec(
            "flight number", ("flight number", "flight", "flight no", "flt"),
            kind="identifier",
        ),
        AttributeSpec(
            "airline", ("airline", "carrier", "operated by"),
            values=(
                "aa", "ua", "dl", "wn", "b6", "as", "nk", "f9", "ha", "g4",
            ),
        ),
        AttributeSpec(
            "departure gate", ("departure gate", "gate", "dep gate"),
            values=tuple(f"{letter}{n}" for letter in "ABCD" for n in range(1, 13)),
        ),
        AttributeSpec(
            "departure time", ("departure time", "scheduled departure", "dep time"),
            values=tuple(
                f"{h:02d}:{m:02d}" for h in range(5, 23) for m in (0, 15, 30, 45)
            ),
        ),
        AttributeSpec(
            "arrival time", ("arrival time", "scheduled arrival", "arr time"),
            values=tuple(
                f"{h:02d}:{m:02d}" for h in range(6, 24) for m in (5, 20, 35, 50)
            ),
        ),
        AttributeSpec(
            "status", ("status", "flight status", "state"),
            values=("on time", "delayed", "boarding", "departed", "cancelled"),
        ),
        AttributeSpec(
            "aircraft", ("aircraft", "equipment", "plane type"),
            values=("a320", "a321", "b737", "b738", "b777", "e175", "crj9"),
            tail=True,
        ),
    ),
)

_MONITOR = CategoryVocabulary(
    name="monitor",
    brands=(
        "dell", "lg", "samsung", "asus", "acer", "benq", "aoc",
        "viewsonic", "philips", "hp",
    ),
    attributes=(
        AttributeSpec(
            "product id", ("product id", "sku", "mpn", "part number"),
            kind="identifier",
        ),
        AttributeSpec(
            "brand", ("brand", "manufacturer", "make"),
            values=(
                "dell", "lg", "samsung", "asus", "acer", "benq", "aoc",
                "viewsonic", "philips", "hp",
            ),
        ),
        AttributeSpec(
            "screen size",
            ("screen size", "display size", "diagonal", "panel size"),
            kind="numeric", low=19.0, high=49.0, digits=1, unit="in",
            alt_units=("cm",),
        ),
        AttributeSpec(
            "refresh rate", ("refresh rate", "frequency", "refresh"),
            values=("60 hz", "75 hz", "120 hz", "144 hz", "240 hz"),
        ),
        AttributeSpec(
            "panel type", ("panel type", "panel", "display technology"),
            values=("ips", "va", "tn", "oled"),
        ),
        AttributeSpec(
            "weight", ("weight", "item weight", "net weight"),
            kind="numeric", low=2000, high=12000, digits=0, unit="g",
            alt_units=("kg", "lb"),
        ),
        AttributeSpec(
            "color", ("color", "colour", "chassis color"), values=_COLORS,
        ),
        AttributeSpec(
            "vesa mount", ("vesa mount", "vesa", "mount pattern"),
            values=("75x75", "100x100", "200x200", "none"), tail=True,
        ),
        AttributeSpec(
            "curvature", ("curvature", "curve radius", "screen curve"),
            values=("flat", "1000r", "1500r", "1800r"), tail=True,
        ),
    ),
)

_TELEVISION = CategoryVocabulary(
    name="television",
    brands=(
        "samsung", "lg", "sony", "tcl", "hisense", "panasonic",
        "philips", "vizio", "sharp", "toshiba",
    ),
    attributes=(
        AttributeSpec(
            "product id", ("product id", "sku", "mpn", "model code"),
            kind="identifier",
        ),
        AttributeSpec(
            "brand", ("brand", "manufacturer", "make"),
            values=(
                "samsung", "lg", "sony", "tcl", "hisense", "panasonic",
                "philips", "vizio", "sharp", "toshiba",
            ),
        ),
        AttributeSpec(
            "screen size",
            ("screen size", "display size", "diagonal", "class size"),
            kind="numeric", low=32.0, high=85.0, digits=0, unit="in",
            alt_units=("cm",),
        ),
        AttributeSpec(
            "resolution", ("resolution", "display resolution", "pixels"),
            values=("720p", "1080p", "4k", "8k"),
        ),
        AttributeSpec(
            "display type", ("display type", "panel", "screen technology"),
            values=("led", "oled", "qled", "lcd", "mini-led"),
        ),
        AttributeSpec(
            "smart platform", ("smart platform", "os", "smart tv system"),
            values=("webos", "tizen", "android tv", "roku", "none"),
        ),
        AttributeSpec(
            "weight", ("weight", "item weight", "weight without stand"),
            kind="numeric", low=4000, high=45000, digits=0, unit="g",
            alt_units=("kg", "lb"),
        ),
        AttributeSpec(
            "hdmi ports", ("hdmi ports", "hdmi", "hdmi inputs"),
            kind="numeric", low=1, high=6, digits=0, unit=None, tail=True,
        ),
        AttributeSpec(
            "hdr", ("hdr", "hdr support", "high dynamic range"),
            values=("hdr10", "hdr10+", "dolby vision", "none"), tail=True,
        ),
    ),
)

_BUILTIN: dict[str, CategoryVocabulary] = {
    vocab.name: vocab
    for vocab in (
        _CAMERA, _NOTEBOOK, _HEADPHONE, _BOOK, _FLIGHT, _MONITOR,
        _TELEVISION,
    )
}


def category(name: str) -> CategoryVocabulary:
    """Look up a built-in category vocabulary by name."""
    try:
        return _BUILTIN[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown category {name!r}; available: {sorted(_BUILTIN)}"
        ) from None
