"""A config-driven sweep, end to end: run, read the CSV, summarize.

Everything here also works from the shell:

    gossipgd run demos/configs/rate_sweep.ini --out demos/output
    gossipgd summarize demos/output/rate_sweep.csv --slope-axis nm

The config sweeps the agent count at fixed per-agent sample size with the
closed-form schedule (eta = auto).  For this target, spread evenly over
d = 8 coordinates, the exact expected slope of the final excess risk
against nm is -0.685 at nm ~ 2^7: shallower than the minimax -0.8, the
worst case over the source class, and tending to the parametric -1 once
every coordinate is resolved.  Runs are seeded per (sweep point, replicate):
rerunning the config, with any thread count, reproduces the CSV byte for
byte.
"""

from pathlib import Path

from gossipgd.cli import main

HERE = Path(__file__).parent
OUT = HERE / "output"
OUT.mkdir(exist_ok=True)
config = HERE / "configs" / "rate_sweep.ini"

print(f"== gossipgd run {config.name} ==")
rc = main(["run", str(config), "--out", str(OUT), "--threads", "2"])
assert rc == 0

csv_path = OUT / "rate_sweep.csv"
lines = csv_path.read_text().splitlines()
n_comments = sum(1 for ln in lines if ln.startswith("#"))
print(f"\nthe CSV starts by echoing its provenance ({n_comments} comment lines):")
for ln in lines[:6]:
    print(f"  {ln}")
print(f"  ... then a header plus {len(lines) - n_comments - 1} data rows")

print("\n== gossipgd summarize (final-iterate means over replicates) ==")
rc = main(["summarize", str(csv_path), "--slope-axis", "nm"])
assert rc == 0

print("the tuned stopping times grow with nm, so each sweep point stops at a")
print("different t; 'summarize' always takes the last recorded iteration of")
print("each run before averaging.")
