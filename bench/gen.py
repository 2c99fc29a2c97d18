"""Seeded synthetic corpora for the benchmark workloads (standard library only).

``generate(workload, seed, out_dir)`` writes every input file a workload
needs and returns a plan: the files it wrote and the record and pair counts
the CLI must report back.  The same ``(workload, seed)`` always gives
the same bytes; each file draws from its own ``random.Random`` seeded with
the run seed plus the file name, so files stay independent of each other's
draw counts.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("single-image", "driving-scenes", "mixture")

# Records (or pairs) per file.
SIZES = {
    "single-image": {"cls": 2000, "grd": 4000, "reg": 3000, "mcq": 3000},
    "driving-scenes": {"mv": 3000, "vid": 4000, "txt": 2000, "sig": 20000},
    "mixture": {"d_grd": 12000, "d_reg": 5000, "d_cls": 6000, "g1": 4000, "g2": 8000, "g3": 12000},
}

MIX_WEIGHTS = {"g1": 1.0, "g2": 2.0, "g3": 3.0}
MIX_RATIO = "1:4"
MIX_REPEAT = {"d_grd": 1, "d_reg": 2, "d_cls": 1}

CAMERAS = ("CAM_FRONT_LEFT", "CAM_FRONT", "CAM_FRONT_RIGHT", "CAM_BACK_LEFT", "CAM_BACK", "CAM_BACK_RIGHT")

# Mostly ASCII with a share of accented, CJK and Cyrillic words, so that
# UTF-8 encode/decode and byte offsets see multi-byte text.
NOUNS = (
    "car", "truck", "bus", "pedestrian", "cyclist", "tree", "building", "river", "bridge", "road",
    "field", "roof", "ship", "harbor", "runway", "airplane", "lesion", "nodule", "vessel", "tissue",
    "forêt", "rivière", "straße", "brücke", "農地", "建物", "道路", "河川", "поле", "дорога",
)
ADJECTIVES = (
    "red", "small", "large", "white", "dark", "left", "right", "parked", "moving", "distant",
    "rouge", "grün", "大きな", "白い", "тёмный",
)
LABELS = (
    "farmland", "forest", "residential", "industrial", "harbor", "airport", "desert", "beach",
    "meadow", "river", "lake", "mountain", "parking lot", "stadium", "bridge", "railway",
    "forêt dense", "zone côtière", "農地", "住宅地", "лес", "пустыня",
)
VERBS = ("is", "was", "appears", "remains", "keeps", "starts", "stops", "turns", "moves", "waits")
WORDS = (
    "the", "a", "ego", "vehicle", "should", "slow", "down", "because", "of", "ahead", "lane",
    "traffic", "light", "green", "red", "yellow", "crossing", "intersection", "pedestrian", "car",
    "truck", "left", "right", "straight", "stop", "go", "speed", "keep", "turn", "behind", "front",
    "near", "far", "parked", "moving", "signal", "sign", "road", "wet", "clear", "night", "day",
)


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"vlprep-bench:{seed}:{name}")


def _dims(rng: random.Random) -> tuple[int, int]:
    """Image size with log-uniform area and an aspect ratio from 1:16 to 16:1."""
    area = math.exp(rng.uniform(math.log(4e4), math.log(2e7)))
    aspect = math.exp(rng.uniform(math.log(1 / 16), math.log(16)))
    width = max(1, round(math.sqrt(area * aspect)))
    height = max(1, round(area / width))
    return width, height


def _box(rng: random.Random, width: int, height: int) -> list:
    """A box inside the image; about 3% are zero-area, some have float corners."""
    x1 = rng.randint(0, width)
    y1 = rng.randint(0, height)
    x2 = rng.randint(x1, width)
    y2 = rng.randint(y1, height)
    roll = rng.random()
    if roll < 0.015:
        x2 = x1
    elif roll < 0.03:
        y2 = y1
    elif roll < 0.2:
        return [round(x1 + 0.5 * (x2 > x1), 1), float(y1), float(x2), float(y2)]
    return [x1, y1, x2, y2]


def _phrase(rng: random.Random) -> str:
    return f"{rng.choice(ADJECTIVES)} {rng.choice(NOUNS)}"


def _sentence(rng: random.Random, lo: int, hi: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi))) + rng.choice((".", "!", "?", "."))


def _envelope(rid: str, task: str, meta: dict, payload: dict) -> str:
    return json.dumps(
        {"id": rid, "schema_version": "1", "task": task, "meta": meta, "payload": payload},
        ensure_ascii=False,
    )


def _write(path: Path, lines) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
            count += 1
    return count


# --- single-image ----------------------------------------------------------


def _classification(rng: random.Random, n: int):
    for i in range(n):
        width, height = _dims(rng)
        candidates = rng.sample(LABELS, rng.randint(2, 8))
        payload = {"image": f"si/cls/{i:06d}.jpg", "candidates": candidates, "truth": rng.choice(candidates)}
        meta = {"domain": "remote-sensing", "width": str(width), "height": str(height)}
        yield _envelope(f"cls-{i:06d}", "classification", meta, payload)


def _grounding(rng: random.Random, n: int):
    for i in range(n):
        width, height = _dims(rng)
        payload = {
            "image": f"si/grd/{i:06d}.jpg",
            "expression": f"the {_phrase(rng)}",
            "box": _box(rng, width, height),
            "width": width,
            "height": height,
        }
        yield _envelope(f"grd-{i:06d}", "grounding", {"domain": "remote-sensing"}, payload)


def _region(rng: random.Random, n: int):
    for i in range(n):
        width, height = _dims(rng)
        drawn = rng.random() < 0.15
        payload = {
            "image": f"si/reg/{i:06d}.png",
            "width": width,
            "height": height,
            "region": _box(rng, width, height),
            "question": rng.choice(("What is in this region?", "Is the marked region abnormal?", "この領域には何がありますか?")),
            "answer": _phrase(rng) if rng.random() < 0.5 else _sentence(rng, 3, 10),
            "mode": "drawn-annotation" if drawn else "inline-box",
        }
        if rng.random() < 0.4:
            payload["answer_is_object"] = True
        yield _envelope(f"reg-{i:06d}", "region", {"domain": "medical"}, payload)


def _mcq_pairs(rng: random.Random, n: int):
    letters = "ABCDEFGH"
    for i in range(n):
        k = rng.randint(2, 8)
        truth = rng.randrange(k)
        pred = truth if rng.random() < 0.7 else rng.randrange(k)
        label = rng.choice(LABELS)
        style = rng.random()
        if style < 0.4:
            prediction = letters[pred]
        elif style < 0.8:
            prediction = f"{letters[pred]}. {label}"
        else:
            prediction = f" {letters[pred].lower()}) {label}"
        obj = {"id": f"mcq-{i:06d}", "prediction": prediction, "references": [f"{letters[truth]}. {label}"]}
        yield json.dumps(obj, ensure_ascii=False)


# --- driving-scenes --------------------------------------------------------


def _multiview(rng: random.Random, n: int):
    for i in range(n):
        objects = []
        for k in range(1, rng.randint(1, 8) + 1):
            cx, cy = round(rng.uniform(0, 1600), 1), round(rng.uniform(0, 900), 1)
            obj = {"id": f"c{k}", "camera": rng.choice(CAMERAS), "center": [cx, cy]}
            if rng.random() < 0.85:
                obj["box"] = [
                    round(rng.uniform(0, cx), 1),
                    round(rng.uniform(0, cy), 1),
                    round(rng.uniform(cx, 1600), 1),
                    round(rng.uniform(cy, 900), 1),
                ]
            objects.append(obj)
        ids = [o["id"] for o in objects]
        qa = []
        for _ in range(rng.randint(1, 5)):
            a, b = rng.choice(ids), rng.choice(ids)
            question = f"What is the status of <{a}> relative to <{b}>? {_sentence(rng, 3, 8)}"
            answer = f"<{a}> {rng.choice(VERBS)} {_sentence(rng, 4, 14)} <{b}> {rng.choice(VERBS)} {_phrase(rng)}."
            qa.append([question, answer])
        payload = {
            "views": {cam: f"ds/mv/{i:06d}/{cam}.jpg" for cam in CAMERAS},
            "view_dims": {cam: [1600, 900] for cam in CAMERAS},
            "qa": qa,
            "objects": objects,
        }
        yield _envelope(f"mv-{i:06d}", "multiview", {"domain": "driving"}, payload)


def _video(rng: random.Random, n: int):
    for i in range(n):
        frames = [f"ds/vid/{i:06d}/{j:02d}.jpg" for j in range(rng.randint(1, 40))]
        qa = [[_sentence(rng, 4, 12), _sentence(rng, 4, 20)] for _ in range(rng.randint(1, 4))]
        yield _envelope(f"vid-{i:06d}", "video", {"domain": "driving"}, {"frames": frames, "qa": qa})


def _text_pairs(rng: random.Random, n: int):
    for i in range(n):
        reference = _sentence(rng, 10, 30)
        words = reference.split()
        prediction = " ".join(w if rng.random() < 0.7 else rng.choice(WORDS) for w in words)
        references = [reference] if rng.random() < 0.6 else [reference, _sentence(rng, 10, 30)]
        yield json.dumps({"id": f"txt-{i:06d}", "prediction": prediction, "references": references})


def _signal_pairs(rng: random.Random, n: int):
    for i in range(n):
        truth = round(rng.uniform(-30.0, 30.0), 3)
        predicted = round(truth + rng.gauss(0.0, 2.0), 3)
        yield json.dumps({"id": f"sig-{i:06d}", "predicted": predicted, "truth": truth})


# --- mixture ---------------------------------------------------------------


def _norm_box(rng: random.Random) -> str:
    x1, y1 = rng.randint(0, 1000), rng.randint(0, 1000)
    x2, y2 = rng.randint(x1, 1000), rng.randint(y1, 1000)
    return f"<box>[[{x1}, {y1}, {x2}, {y2}]]</box>"


def _conversations(rng: random.Random, n: int, kind: str, prefix: str):
    """Conversation-form envelopes, as ``convert`` would have written them."""
    for i in range(n):
        image = f"mx/{prefix}/{i:06d}.jpg"
        if kind == "grounding":
            ref = f"the {_phrase(rng)}"
            turns = [["user", f"<image>\nDetect <ref>{ref}</ref>"], ["assistant", f"<ref>{ref}</ref>{_norm_box(rng)}"]]
        elif kind == "region":
            turns = [["user", f"<image>\nWhat is in this region?{_norm_box(rng)}"], ["assistant", _sentence(rng, 3, 12)]]
        elif kind == "classification":
            labels = rng.sample(LABELS, rng.randint(2, 6))
            body = "Classify the image within one of the given classes: " + ", ".join(labels)
            turns = [["user", f"<image>\n{body}. Answer with one word or short phrase."], ["assistant", rng.choice(labels)]]
        else:
            turns = [["user", f"<image>\n{_sentence(rng, 5, 15)}"], ["assistant", _sentence(rng, 5, 25)]]
            for _ in range(rng.randint(0, 2)):
                turns += [["user", _sentence(rng, 5, 15)], ["assistant", _sentence(rng, 5, 25)]]
        meta = {"domain": prefix, "task": kind}
        yield _envelope(f"{prefix}-{i:06d}", kind, meta, {"images": [image], "turns": turns})


# --- plans -----------------------------------------------------------------


def generate(workload: str, seed: int, out_dir: str | Path) -> dict:
    """Write the workload's input files under ``out_dir`` and return its plan.

    The plan maps each input name to ``{"path", "count"}`` (absolute path,
    records or pairs in it); the mixture plan also carries the manifest path
    and the mixed stream's expected domain and general totals.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out = Path(out_dir).resolve()
    out.mkdir(parents=True, exist_ok=True)
    n = SIZES[workload]
    files: dict[str, dict] = {}

    def emit(name: str, maker, *args) -> None:
        path = out / f"{name}.jsonl"
        files[name] = {"path": str(path), "count": _write(path, maker(_rng(seed, name), n[name], *args))}

    plan: dict = {"workload": workload, "seed": seed, "files": files}
    if workload == "single-image":
        emit("cls", _classification)
        emit("grd", _grounding)
        emit("reg", _region)
        emit("mcq", _mcq_pairs)
    elif workload == "driving-scenes":
        emit("mv", _multiview)
        emit("vid", _video)
        emit("txt", _text_pairs)
        emit("sig", _signal_pairs)
    else:
        emit("d_grd", _conversations, "grounding", "d_grd")
        emit("d_reg", _conversations, "region", "d_reg")
        emit("d_cls", _conversations, "classification", "d_cls")
        for name in MIX_WEIGHTS:
            emit(name, _conversations, "vqa", name)
        manifest = {
            "domain_sources": [
                {"id": name, "path": files[name]["path"], "repeat": MIX_REPEAT[name]} for name in MIX_REPEAT
            ],
            "general_sources": [
                {"id": name, "path": files[name]["path"], "weight": w} for name, w in MIX_WEIGHTS.items()
            ],
            "ratio": MIX_RATIO,
            "seed": _rng(seed, "manifest").randrange(2**31),
        }
        manifest_path = out / "manifest.json"
        manifest_path.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
        domain_total = sum(files[name]["count"] * k for name, k in MIX_REPEAT.items())
        general, domain = (float(v) for v in MIX_RATIO.split(":"))
        plan["manifest"] = str(manifest_path)
        plan["domain_total"] = domain_total
        plan["general_total"] = math.floor(general / domain * domain_total + 0.5)
    return plan
