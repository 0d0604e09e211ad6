from setuptools import find_packages, setup

setup(
    name="repro-autobatching",
    version="1.2.0",
    description=(
        "Reproduction of 'Automatically Batching Control-Intensive Programs "
        "for Modern Accelerators' (Radul et al., MLSys 2020), plus a "
        "pluggable block-executor layer and a continuous-batching serving "
        "engine on top of the program-counter machine"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    extras_require={"test": ["pytest", "hypothesis"]},
)
