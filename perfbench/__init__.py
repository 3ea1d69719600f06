"""End-to-end run benchmark for the FedHiSyn reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one named workload through ``build_experiment`` and
``server.fit`` in fresh child processes and prints its metrics; see
``perfbench/README.md``.
"""
