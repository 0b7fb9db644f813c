"""Line-protocol classifier for the `subprocess:` adapter.

It answers from the image path alone: the label is the file-name prefix
before the first `_`, and the answer is wrong ("none") when `is_miss` says so.
The benchmark imports `is_miss` to know every answer in advance, so the
accuracies it expects per condition come from this rule, not from the program.

    python3 responder.py --seed N --salt K [--flip cond_007/c1_003.ppm]

`--flip` adds one wrong answer on top of the rule, for the self-tests.
"""

from __future__ import annotations

import argparse
import sys
import zlib

WRONG = "none"


def miss_percent(condition_id: int, salt: int) -> int:
    """Share of wrong answers, in percent, that the rule gives a condition."""
    return (condition_id * 7 + salt) % 31


def is_miss(seed: int, salt: int, condition_id: int, filename: str) -> bool:
    key = f"{seed}:{salt}:{condition_id}:{filename}".encode()
    return zlib.crc32(key) % 100 < miss_percent(condition_id, salt)


def answer(seed: int, salt: int, path: str, flip: str | None = None) -> str:
    group, filename = path.rsplit("/", 2)[-2:]
    condition_id = int(group.removeprefix("cond_"))
    if is_miss(seed, salt, condition_id, filename) or f"{group}/{filename}" == flip:
        return WRONG
    return filename.split("_", 1)[0]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--salt", type=int, required=True)
    parser.add_argument("--flip", default=None)
    args = parser.parse_args()
    for line in sys.stdin:
        sys.stdout.write(answer(args.seed, args.salt, line.rstrip("\n"), args.flip) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
