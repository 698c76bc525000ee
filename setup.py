from setuptools import find_packages, setup

setup(
    name="shiftex-repro",
    version="1.1.0",
    description=("Reproduction of 'Shift Happens: Mixture of Experts based "
                 "Continual Adaptation in Federated Learning' (Middleware "
                 "2025) with a composable experiment API"),
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    # scipy is the reference the data kernels' differentials compare against
    # (tests/test_data_kernels.py); no run imports it.  1.17 needs Python
    # 3.11+, and without it those tests skip while the byte pins still run.
    extras_require={"test": ["pytest", "hypothesis",
                             "scipy==1.17.*; python_version >= '3.11'"]},
    entry_points={"console_scripts": ["repro=repro.__main__:main"]},
)
