"""Layer spans recorded from outside the package.

``Tracer.install`` wraps every public function of the listed ``mienasr``
modules and rebinds the wrapper wherever a package module holds the
original: in the defining module and in each module that imported it (for
example ``mienasr.experiment.decode``, ``mienasr.cli.decode`` and
``mienasr.decoder.lm_score``).  No program file changes; ``uninstall``
puts the originals back.

Most calls become spans kept in memory (name, start, end, parent, workload
id).  Functions called per word or per LM query are only counted and timed
in aggregate, so the tracer's own cost stays small and shows up as the gap
between traced and untraced passes.

A function's self time is its duration minus the time its callees in
other layers took; calls within one layer (``decode`` into
``decode_phoneme``) stay part of the caller's self time.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("orthography", "lexicon", "tokenizer", "lm", "ctc", "decoder",
          "transfer", "evaluate", "experiment", "cli")

# called once per word, syllable, utterance pair or LM query
AGGREGATE = frozenset({
    "lm.lm_score", "lm.sentence_logprob", "orthography.parse_word",
    "orthography.parse_syllable", "lexicon.g2p", "lexicon.longest_match",
    "lexicon.strip_token", "evaluate.error_rate", "evaluate.pool",
    "tokenizer.bpe_encode", "tokenizer.bpe_decode", "tokenizer.token_ids_to_words",
    "ctc.collapse", "ctc.min_frames", "ctc.normalize_rows",
})


def layer_name(module: str, func: str) -> str:
    if module == "cli" and func.startswith("cmd_"):
        return "cli." + func[4:].replace("_", "-")
    return f"{module}.{func}"


class Stat:
    __slots__ = ("calls", "s", "self_s", "durations")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.durations: list[float] = []


class Tracer:
    """Span and counter recorder; one instance per traced run."""

    def __init__(self):
        self.workload = ""
        self.spans: list[tuple] = []          # (id, name, start, end, parent, workload)
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []          # [layer, other-layer child s, span id]
        self._next_id = 0
        self._lm_keys: dict | None = None     # id(model) -> (model, raw keys) in a decode
        self._patched: list[tuple] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        modules = {name: importlib.import_module(f"mienasr.{name}") for name in LAYERS}
        wrappers = {}
        for short, mod in modules.items():
            for fname, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not fname.startswith("_")):
                    wrappers[fn] = self._wrap(fn, short, layer_name(short, fname))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- wrappers -------------------------------------------------------
    def _wrap(self, fn, layer: str, name: str):
        stack, stat = self._stack, self.stats[name]
        spanned = name not in AGGREGATE
        on_exit = {"decoder.decode": self._decode_exit,
                   "lexicon.build_lexicon": self._lexicon_exit}.get(name)
        on_enter = self._decode_enter if name == "decoder.decode" else None
        lm_query = self._lm_query if name == "lm.lm_score" else None

        def traced(*args, **kwargs):
            if lm_query is not None:
                lm_query(args)
            if on_enter is not None:
                on_enter()
            parent = stack[-1] if stack else None
            frame = [layer, 0.0, -1]
            if spanned:
                frame[2] = self._next_id
                self._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                stat.calls += 1
                stat.s += dur
                stat.self_s += dur - frame[1]
                if parent is not None:
                    parent[1] += dur if parent[0] != layer else frame[1]
                if spanned:
                    stat.durations.append(dur)
                    self.spans.append((frame[2], name, start, end,
                                       self._span_parent(), self.workload))
            if on_exit is not None:
                on_exit(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _span_parent(self) -> int:
        for frame in reversed(self._stack):
            if frame[2] >= 0:
                return frame[2]
        return -1

    def _lm_query(self, args) -> None:
        if self._lm_keys is not None:
            model, history, word = args
            self._lm_keys.setdefault(id(model), (model, set()))[1].add((history, word))
            self.counts["decode_lm_calls"] += 1

    def _decode_enter(self) -> None:
        self._lm_keys = {}

    def _decode_exit(self, args, result) -> None:
        self.counts["frames"] += args[0].frames
        self.counts["empty_decodes"] += not result
        for model, raw in self._lm_keys.values():
            keep = model.order - 1
            self.counts["decode_lm_distinct"] += len({
                (tuple(model.map_word(x) for x in h)[max(0, len(h) - keep):],
                 model.map_word(w)) for h, w in raw})
        self._lm_keys = None

    def _lexicon_exit(self, args, result) -> None:
        self.counts["lexicon_failures"] += len(result[1])

    # -- results --------------------------------------------------------
    def dump(self) -> list[dict]:
        return [{"id": i, "name": n, "start": s, "end": e, "parent": p, "workload": w}
                for i, n, s, e, p, w in self.spans]
