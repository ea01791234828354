#!/usr/bin/env python3
"""Energy-consumption analysis (the paper's §V-B ReNuBiL scenarios).

Runs PeakDetection (queue-based moving average; flags samples deviating
more than 40 % from the window mean) and SpectrumCalculation (map-based
histogram of power values plus an above-threshold counter) on a
simulated building power trace with injected peaks.
"""

import time

from repro import api
from repro.speclib import peak_detection, spectrum_calculation
from repro.workloads import power_trace

SAMPLES = 20_000

# The generated-source engine has the fastest calculation section, so
# the timings below show the in-place update rather than dispatch cost.
OPTIMIZED = api.CompileOptions(engine="codegen")
BASELINE = api.CompileOptions(engine="codegen", optimize=False)


def main() -> None:
    inputs = power_trace(SAMPLES, seed=7, peak_rate=0.01)
    values = [v for _, v in inputs["x"]]
    print(
        f"Simulated power trace: {SAMPLES} samples,"
        f" {min(values):.0f}-{max(values):.0f} W\n"
    )

    # --- PeakDetection ---------------------------------------------------
    spec = peak_detection(window=30, deviation=0.4)
    optimized = api.compile(spec, OPTIMIZED)
    peaks = [0]
    optimized_monitor = optimized.new_instance(
        lambda n, t, v: peaks.__setitem__(0, peaks[0] + (1 if v else 0))
    )
    start = time.perf_counter()
    optimized_monitor.run_traces(inputs)
    t_opt = time.perf_counter() - start

    baseline = api.compile(spec, BASELINE)
    baseline_monitor = baseline.new_instance()
    start = time.perf_counter()
    baseline_monitor.run_traces(inputs)
    t_base = time.perf_counter() - start

    print("PeakDetection (30-sample moving average, 40% deviation):")
    print(f"  peaks flagged      : {peaks[0]}")
    print(f"  optimized runtime  : {t_opt:.3f}s")
    print(f"  persistent runtime : {t_base:.3f}s")
    print(f"  speedup            : {t_base / t_opt:.2f}x\n")

    # --- SpectrumCalculation ----------------------------------------------
    spec = spectrum_calculation(bucket_width=250.0, threshold=5000.0)
    monitor = api.compile(spec)
    above = [0]

    def on_output(name, ts, value):
        if name == "above":
            above[0] = value

    monitor.new_instance(on_output).run_traces(inputs)
    print("SpectrumCalculation (250 W histogram buckets):")
    print(f"  samples above 5 kW : {above[0]}"
          f" ({100 * above[0] / SAMPLES:.2f}% of the trace)")
    print(f"  mutable aggregates : {sorted(monitor.mutable_streams)}")


if __name__ == "__main__":
    main()
