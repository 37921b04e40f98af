"""The verification harness the suite runs: shadow model, crash and soak
sweeps, schedule explorer, race checker and virtual writer threads."""
