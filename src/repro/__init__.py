"""ShiftEx reproduction: shift-aware mixture-of-experts continual FL.

Reproduces "Shift Happens: Mixture of Experts based Continual Adaptation in
Federated Learning" (Bhope et al., Middleware 2025) as a self-contained
Python library: a numpy neural-network substrate, synthetic shifted federated
datasets, MMD/JSD shift detection, the ShiftEx expert-management core, five
comparison baselines, and a composable experiment layer (strategy registry,
declarative plans, serial/parallel executors, run events) regenerating every
table and figure of the paper's evaluation.

Quickstart::

    from repro.experiments.executors import ParallelExecutor
    from repro.experiments.plan import ExperimentPlan
    from repro.harness.comparison import render_drop_time_max_table

    plan = ExperimentPlan.build("cifar10_c_sim", ["fedprox", "shiftex"],
                                seeds=(0, 1), profile="ci")
    result = plan.run(executor=ParallelExecutor(jobs=2))
    print(render_drop_time_max_table(result, title="CIFAR-10-C (simulated)"))
"""
