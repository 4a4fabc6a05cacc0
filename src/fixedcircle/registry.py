"""Condition ids, what each rule reads and the theorem registry: data,
importable without numpy or the kernels, so the command line builds its
parser and its circle rule from them."""

CONDITION_IDS = ("C1", "C2", "C1_STAR", "C2_STAR", "C1_DSTAR", "C2_DSTAR",
                 "ID_COND", "C3", "C3_DSTAR", "BANACH", "CARISTI", "RHOADES")

# What the rule of each condition id and conclusion atom reads besides
# the space and the map: "circle" (its members and radius, and the
# canonical weight at its center), "center" (that weight alone),
# "weight" (a user phi, else that weight) or None. Without a phi, each
# of the first three needs a circle.
READS = {**dict.fromkeys(("C1", "C2", "C1_STAR", "C2_STAR", "C1_DSTAR",
                          "C2_DSTAR", "C3", "C3_DSTAR", "FIXED_CIRCLE",
                          "NO_FIXED_OFF_CIRCLE"), "circle"),
         "ID_COND": "center", "CARISTI": "weight",
         **dict.fromkeys(("BANACH", "RHOADES", "IDENTITY", "ONE_FIXED_POINT",
                          "AT_MOST_ONE_FIXED_POINT", "SOME_FIXED_POINT"))}

# The theorem registry, in THEOREM_IDS order: theorem id -> (condition
# ids the hypotheses AND, fixed-set atoms the conclusion ANDs, whether
# the uniqueness rule holds). That rule: an empty circle cannot anchor
# the uniqueness argument (no member plays the fixed reference point),
# so there both sides are false and the vacuous hypotheses are reported
# as not asserted.
_UNIQUE = ("FIXED_CIRCLE", "NO_FIXED_OFF_CIRCLE")
THEOREMS = {
    "T_EXIST_C1C2": (("C1", "C2"), ("FIXED_CIRCLE",), False),
    "T_EXIST_STAR": (("C1_STAR", "C2_STAR"), ("FIXED_CIRCLE",), False),
    "T_EXIST_DSTAR": (("C1_DSTAR", "C2_DSTAR"), ("FIXED_CIRCLE",), False),
    "T_IDENTITY": (("ID_COND",), ("IDENTITY", "FIXED_CIRCLE"), False),
    "T_UNIQUE_C3": (("C1", "C2", "C3"), _UNIQUE, True),
    "T_UNIQUE_C3_STARVARIANT": (("C1_STAR", "C2_STAR", "C3"), _UNIQUE, True),
    "T_UNIQUE_C3_DSTAR": (("C1_DSTAR", "C2_DSTAR", "C3_DSTAR"), _UNIQUE, True),
    "T_BANACH": (("BANACH",), ("ONE_FIXED_POINT",), False),
    "T_CARISTI": (("CARISTI",), ("SOME_FIXED_POINT",), False),
}
THEOREM_IDS = tuple(THEOREMS)

# What each theorem's rules, hypotheses and conclusion, read (READS), None
# left out: empty for T_BANACH alone, the one theorem needing no circle.
THEOREM_READS = {tid: frozenset(READS[a] for a in hyps + concl) - {None}
                 for tid, (hyps, concl, _) in THEOREMS.items()}
