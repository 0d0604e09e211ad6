"""Serving NUTS: stream logistic-regression chain requests through lanes.

The paper batches Z NUTS chains that all start together.  This example runs
the same compiled ``nuts_chain`` program behind the ``repro.serve`` engine
instead: chain requests *arrive over time* (a staggered stream, as a
production inference service would see), each is injected into whichever
machine lane last fell vacant, and its final state is returned through a
Future-like handle.  Mid-flight, the batch holds chains at different
trajectory counts, tree depths, and stack depths — Algorithm 2 doesn't
care, which is exactly why lane recycling is sound.

The example also replays two requests through a static ``run_pc`` batch to
show the served results are bit-identical (counter-based RNG makes every
chain's randomness schedule-invariant).

Run: ``python examples/serving_nuts.py``
"""

import numpy as np

from repro.frontend.primitives import make_counters
from repro.nuts.tree import make_nuts_functions
from repro.targets import BayesianLogisticRegression


def main():
    num_lanes, n_requests = 4, 12
    n_traj, max_depth, n_leapfrog, step_size = 3, 5, 4, 0.08

    target = BayesianLogisticRegression(n_data=400, n_features=6, seed=0)
    chain = make_nuts_functions(target).nuts_chain

    # Per-request inputs: one chain each, with its own start and RNG stream.
    rng = np.random.RandomState(7)
    q0 = 0.1 * rng.randn(n_requests, target.dim)
    ctrs = make_counters(seed=42, batch_size=n_requests)
    scalar = lambda v: np.float64(v)  # noqa: E731
    requests = [
        (q0[i], scalar(step_size), scalar(max_depth), scalar(n_leapfrog),
         scalar(n_traj), scalar(0.0), ctrs[i])
        for i in range(n_requests)
    ]

    def serve_stream(executor):
        """Drive the identical staggered stream through one engine."""
        engine = chain.serve(
            num_lanes=num_lanes,
            max_queue_depth=2 * n_requests,
            executor=executor,
        )
        # A staggered stream: a few requests up front, the rest trickling
        # in while earlier chains are mid-trajectory.
        handles = [engine.submit(*requests[i]) for i in range(num_lanes)]
        next_req = num_lanes
        while engine.tick() or next_req < n_requests:
            if next_req < n_requests and engine.now % 50 == 0:
                handles.append(engine.submit(*requests[next_req]))
                next_req += 1
        return engine, handles

    print(f"serving {n_requests} NUTS chain requests ({n_traj} trajectories each) "
          f"through {num_lanes} lanes on "
          f"logistic regression ({target.n_data} x {target.dim})\n")

    engine, handles = serve_stream("eager")
    finals = np.stack([h.result()[0] for h in handles])
    grads = np.array([float(h.result()[1]) for h in handles])
    order = np.argsort([h.finish_tick for h in handles])
    print("request completions (engine logical clock):")
    for i in order:
        h = handles[i]
        print(f"  request {h.request_id:2d}: lane {h.lane}, "
              f"waited {h.queue_wait():4d} ticks, active {h.steps_used:5d} steps, "
              f"finished at tick {h.finish_tick}, "
              f"{grads[i]:4.0f} gradient evals")

    print("\n== engine telemetry ==")
    print(engine.telemetry.summary())

    # Differential check: replay two served requests as a static batch.
    probe = [handles[1], handles[num_lanes]]
    static = chain.run_pc(
        *[np.stack([np.asarray(h.request.inputs[j]) for h in probe])
          for j in range(7)]
    )
    served_q = np.stack([h.result()[0] for h in probe])
    assert np.array_equal(served_q, static[0]), "served chain diverged from static"
    print("\nserved results are bit-identical to a static run_pc batch")

    # Executor differential: the same stream under fused block execution
    # must land bit-identically, with a fraction of the host dispatches.
    fused_engine, fused_handles = serve_stream("fused")
    fused_finals = np.stack([h.result()[0] for h in fused_handles])
    assert np.array_equal(fused_finals, finals), (
        "fused serving diverged from eager serving"
    )
    print(f"fused serving is bit-identical to eager; dispatches "
          f"{fused_engine.dispatch_count():,} (fused) vs "
          f"{engine.dispatch_count():,} (eager)")
    print(f"posterior-mean accuracy over served chains: "
          f"{target.accuracy(finals.mean(axis=0)):.3f}")


if __name__ == "__main__":
    main()
