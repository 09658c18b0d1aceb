#!/usr/bin/env python3
"""Write bench/expected.json: the outputs the benchmark compares against at its default seed.

    python3 bench/record_expected.py

It runs every pre-drawn round of exact_solve, batch_solve and cli_session
once at the default seed, refuses to record an output that fails the
benchmark's own checks, and stores solver values and witnesses (batch
results as one sha256 per call) and, for each CLI command, its exit code
and the sha256 of its JSON `results`.  Re-record only when the benchmark's
inputs change, never to make a failing run pass.
"""

import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    sd = run.import_sigdom()
    tr = run.Tracer()
    out = {"seed": run.DEFAULT_SEED}
    for name in ("exact_solve", "batch_solve", "cli_session"):
        wl = run.WORKLOADS[name](run.DEFAULT_SEED, tiny=False)
        wl.setup(sd, tr)
        entries = {}
        try:
            for r in range(wl.ROUNDS):
                for item in wl.items(r):
                    result = wl.run(item, tr)
                    failed, messages = wl.check(item, result, tr)
                    if failed:
                        print("\n".join(messages), file=sys.stderr)
                        return 1
                    key, value = wl.entry(item, result)
                    entries[key] = value
        finally:
            wl.close()
        out[name] = entries
        print(f"{name}: {len(entries)} entries")
    # one entry per line, so a changed output shows as a one-line diff
    lines = [f'{{"seed": {out.pop("seed")},']
    for i, (name, entries) in enumerate(out.items()):
        lines.append(f' "{name}": {{')
        lines.append(",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items())))
        lines.append(" }" + ("," if i < len(out) - 1 else ""))
    lines.append("}")
    run.EXPECTED_PATH.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
