"""Build the source checkpoint of this tree in a process of its own.

    python3 perfbench/checkpoint.py

``run.py`` starts this when ``.bench_build/streamseg`` holds no checkpoint
for the current ``src/streamseg``, so that pretraining the checkpoint does
not count towards the measuring process's peak RSS.
"""

import run

if __name__ == "__main__":
    run.pin_threads()
    run.import_program()
    import workloads

    workloads.build_checkpoint(run.ROOT, run.WORK)
