"""The repository benchmark (``BENCHMARK.json``).

Run one workload per invocation from the repository root::

    python3 perfbench/run.py --workload sweep-prefetch --seed 1 --seconds 14 --trace 0

and the self-tests with ``python -m pytest perfbench/tests -q``.

Workloads (``workloads.py``; why each exists is in ``BENCHMARK.json``):

* ``sweep-prefetch`` -- Table II x {bingo, sms, spp, bop, ampm, vldp} on
  native LRU, in-process through ``Executor(workers=1)``, no result cache;
* ``sweep-missdense`` -- zipf, oscillate, phase_shift and mix3 with no
  prefetcher under lru, lru-interface and arc;
* ``service-closed`` -- ``bingo-sim serve --workers N`` with N closed-loop
  HTTP clients (N = min(2, nproc)) on short jobs, one in five an exact
  repeat of an earlier spec;
* ``observed-timeline`` -- streaming, em3d, mix1, mix3 x {bingo, sms, spp}
  with an interval timeline.

End-to-end metrics (``--trace 0``): ``sim_kips`` (simulated instructions
of every core, warm-up included, per second; for the service, those of
the jobs the daemon executed, so result-cache and dedup hits add none),
``jobs_per_s``, ``job_p50_ms`` and ``job_p90_ms`` (per-job latency;
in-process the point's wall time, for the service submit to result in
the client), ``setup_s`` (host seconds, median of several: a fresh
interpreter importing the simulator and compiling one trace cold, or
daemon spawn until ``/healthz`` answers),
``peak_rss_mb`` (the benchmark process, or the daemon and its children)
and ``ok_frac`` (jobs that completed with checked results over jobs
attempted; errors, timeouts, refusals and mismatches all count against
it).  Simulated statistics serve only as output checks: the model has no
validation against real hardware, so no simulated speed-up is reported.

Host time here is noisy: other tenants share the cores and the same code
can take twice as long one second as the next.  Job times are therefore
rescaled by a fixed calibration kernel timed next to them (see
``measure.Calibrator``) and reported in reference units (``ref-ms``,
``ref-s``); raw host figures are kept in the notes line.  ``setup_s`` is
not rescaled (a daemon cannot time the kernel); the in-process probes'
rescaled set-up times are in the notes line.  Per-layer times are raw
host time unless their unit says ``ref-``.

Per-layer metrics (``--trace 1``) and the end-to-end metric each should
move are listed in ``workloads.LAYER_TARGETS``; a traced run prints all
of them, and one whose layer the measured process does not exercise
reads 0.  The traced run measures half the time untraced, replays the
same jobs with spans (written to ``.perfbench/spans/``) and timed
prefetchers, requires identical results, and reports its own overhead
as ``trace.overhead_ratio``.
"""
