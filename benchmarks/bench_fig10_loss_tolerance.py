"""Fig 10 bench — maximum atom-loss tolerance per strategy per MID."""

from repro.experiments import fig10_loss_tolerance


def run_once():
    return fig10_loss_tolerance.run(
        benchmarks=("cnu", "cuccaro"), mids=(2.0, 3.0, 4.0, 5.0),
        program_size=30, trials=3, rng=0,
    )


def test_fig10_loss_tolerance(record_figure):
    result = run_once()
    record_figure("fig10", result.format())
    for bench in ("cnu", "cuccaro"):
        # Recompile tolerates the most loss at every MID...
        for mid in (2.0, 3.0, 4.0, 5.0):
            recompile = result.fraction(bench, "recompile", mid)
            for other in ("virtual remapping", "reroute"):
                assert recompile >= result.fraction(bench, other, mid)
        # ...approaching the ideal 70% cap at long range...
        assert result.fraction(bench, "recompile", 5.0) >= 0.45
        # ...and every strategy improves with interaction distance.
        assert (result.fraction(bench, "virtual remapping", 5.0)
                >= result.fraction(bench, "virtual remapping", 2.0))
