"""Seeded input generators, one per workload.

Every input the program sees is made here from the workload seed: the
simulated and synthetic logs (written as ``.jsonl`` files), the question
streams, the append stream and the two diff runs.  The same seed always
gives the same files and the same requests.  The program itself only ever
receives these files and requests; nothing here is passed to it in-process.
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path
from typing import Iterator

from repro.logs.records import JobRecord, TaskRecord
from repro.logs.store import ExecutionLog
from repro.workloads.grid import build_experiment_log, small_grid, tiny_grid

JOB_TIGHT = """FOR JOBS ?, ?
DESPITE numinstances_isSame = T AND pig_script_isSame = T
OBSERVED duration_compare = GT
EXPECTED duration_compare = SIM"""

JOB_LOOSE = """FOR JOBS ?, ?
DESPITE pig_script_isSame = T
OBSERVED duration_compare = GT
EXPECTED duration_compare = SIM"""

TASK_SAME_JOB = """FOR TASKS ?, ?
DESPITE job_id_isSame = T AND task_type_isSame = T
OBSERVED duration_compare = GT
EXPECTED duration_compare = SIM"""


@dataclasses.dataclass(frozen=True)
class Question:
    """One served question: which log, which PXQL text, width, technique."""

    log: str
    query: str
    width: int
    technique: str = "perfxplain"

    @property
    def label(self) -> str:
        entity = "task" if self.query.startswith("FOR TASKS") else "job"
        return f"{self.log}/{entity}/w{self.width}/{self.technique}"


#: The fixed repeat-queries question set: job- and task-level questions at
#: several widths and techniques over two logs.  The task-level
#: ``ruleofthumb`` answer is left out on purpose: its first call computes
#: feature importances for ~5 s, which would dominate set-up.
REPEAT_QUESTIONS = (
    Question("small", JOB_TIGHT, 1),
    Question("small", JOB_TIGHT, 3),
    Question("small", JOB_LOOSE, 2, "simbutdiff"),
    Question("small", TASK_SAME_JOB, 2),
    Question("small", TASK_SAME_JOB, 3, "simbutdiff"),
    Question("tiny", JOB_LOOSE, 2),
    Question("tiny", JOB_TIGHT, 2, "ruleofthumb"),
    Question("tiny", TASK_SAME_JOB, 1),
)

#: The two questions the live-append tailer asks after every append.
FRESH_QUESTIONS = (
    Question("live", JOB_LOOSE, 2),
    Question("live", TASK_SAME_JOB, 2),
)

#: Diff workload: the "after" run scales every job's input size, and with
#: it the duration, by this factor.  The check expects the report to find
#: a regression of about this ratio and to cite ``inputsize``.
DIFF_SCALE = 1.6
DIFF_SCRIPTS = 8


#: Simulation seed of the served grid logs.  Every run serves the same
#: simulated cluster history, so what the workload seed varies (question
#: streams, appended jobs, diff runs) is what differs between runs, and the
#: cost and quality of the answers do not swing with a new history per seed.
SERVED_LOG_SEED = 7


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}:{stream}")


def write_log(path: Path, log: ExecutionLog) -> Path:
    log.save(path)
    return path


# --------------------------------------------------------------------- #
# repeat-queries
# --------------------------------------------------------------------- #


def repeat_logs(tiny: bool) -> dict[str, ExecutionLog]:
    """The two simulated grid logs the repeat-queries server holds."""
    big = tiny_grid() if tiny else small_grid()
    return {
        "small": build_experiment_log(big, seed=SERVED_LOG_SEED),
        "tiny": build_experiment_log(tiny_grid(), seed=SERVED_LOG_SEED + 1),
    }


def question_stream(seed: int, client: int) -> Iterator[Question]:
    """Client ``client``'s endless seeded draw from :data:`REPEAT_QUESTIONS`."""
    rng = _rng(seed, f"client-{client}")
    while True:
        yield rng.choice(REPEAT_QUESTIONS)


# --------------------------------------------------------------------- #
# live-append
# --------------------------------------------------------------------- #


def live_base_log(tiny: bool) -> ExecutionLog:
    return build_experiment_log(tiny_grid() if tiny else small_grid(), seed=SERVED_LOG_SEED)


def append_stream(seed: int, tiny: bool) -> list[tuple[JobRecord, list[TaskRecord]]]:
    """One (job, its tasks) batch per tailer cycle, with fresh ids.

    A simulation of the same grid under the workload seed, in a seeded
    order, renamed so no id collides with the base log.
    """
    source = build_experiment_log(
        tiny_grid() if tiny else small_grid(), seed=SERVED_LOG_SEED + 1000 + seed
    )
    tasks_by_job: dict[str, list[TaskRecord]] = {}
    for task in source.tasks:
        tasks_by_job.setdefault(task.job_id, []).append(task)
    order = list(source.jobs)
    _rng(seed, "append-order").shuffle(order)
    stream = []
    for job in order:
        job_id = f"live{seed}_{job.job_id}"
        tasks = [
            TaskRecord(
                task_id=f"live{seed}_{task.task_id}",
                job_id=job_id,
                features={**task.features, "job_id": job_id},
                duration=task.duration,
            )
            for task in tasks_by_job.get(job.job_id, [])
        ]
        stream.append((JobRecord(job_id, dict(job.features), job.duration), tasks))
    return stream


# --------------------------------------------------------------------- #
# regression-diff
# --------------------------------------------------------------------- #


def diff_run(seed: int, run: str, jobs: int, tasks_per_job: int) -> ExecutionLog:
    """One synthetic run of a recurring pipeline of a few Pig scripts.

    Both runs execute the same jobs (same scripts, instance counts and base
    input sizes, drawn from one seeded stream); the "after" run reads
    :data:`DIFF_SCALE` times more input.  Job duration is proportional to
    input size over instance count, with per-run noise, so "after" is about
    that much slower.  Each script is one blocking group of
    ``jobs / DIFF_SCRIPTS`` jobs per run; the cross-run comparison pins only
    ``instance_type``, so its single group is every job of both runs.
    """
    scale = DIFF_SCALE if run == "after" else 1.0
    shape = _rng(seed, "diff-jobs")
    noise = _rng(seed, f"diff-{run}")
    job_records, task_records = [], []
    for index in range(jobs):
        script = f"etl-{index % DIFF_SCRIPTS}.pig"
        instances = shape.choice((2, 4, 8))
        size = 4e9 * shape.lognormvariate(0.0, 0.4) * scale
        duration = size / 5e7 / instances * noise.lognormvariate(0.0, 0.05)
        job_id = f"job_{run}_{index:05d}"
        job_records.append(
            JobRecord(
                job_id=job_id,
                features={
                    "pig_script": script,
                    "numinstances": float(instances),
                    "blocksize": 64.0,
                    "inputsize": size,
                    "instance_type": "m1.large",
                },
                duration=duration,
            )
        )
        # Input is split unevenly across a job's map tasks (data skew), and
        # a task's duration follows its share.
        shares = [shape.lognormvariate(0.0, 0.5) for _ in range(tasks_per_job)]
        total = sum(shares)
        for slot, share in enumerate(shares):
            task_size = size * share / total
            task_records.append(
                TaskRecord(
                    task_id=f"task_{run}_{index:05d}_m_{slot:06d}",
                    job_id=job_id,
                    features={
                        "job_id": job_id,
                        "task_type": "MAP",
                        "pig_script": script,
                        "hostname": f"host-{slot % instances}",
                        "inputsize": task_size,
                    },
                    duration=task_size / 5e7 * noise.lognormvariate(0.0, 0.05),
                )
            )
    return ExecutionLog(jobs=job_records, tasks=task_records)
