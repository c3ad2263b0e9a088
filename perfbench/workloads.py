"""The three workloads: their inputs (made from the seed) and their sizes.

Every workload times the same four things (``bench.py``): set-up, a
closed-loop service, a cold simulation pass through the sweep cache and
warm fetches from it.  What differs is the scenario each is fed and how
much of the run it gets, and that is what makes each workload stress its
own layers:

* ``line-dcf`` spends its time in long DCF runs on the paper's 5-node
  line, where backoff slot ticks, the engine and the PHY dominate.
* ``mesh-ripple`` spends it in the Roofnet R1/R16 grid, where large-N PHY
  dispatch and RIPPLE (``core``) carry the simulation, and the grid's
  results are written to and read back from the sweep cache.
* ``service-history`` spends it in the HTTP service over a store holding
  thousands of finished jobs, where every submit, claim and metrics scrape
  parses each record and simulation is negligible.

The two simulator workloads run their service cycles over a store of
``SMALL_HISTORY`` finished jobs, a seventh of ``service-history``'s.  The
store's per-request cost is then a few tens of milliseconds, large enough
to dwarf the HTTP round trip's jitter, and the two store sizes together
show how that cost scales: a store whose requests do not read every
record would bring both down to the same few milliseconds.  Likewise ``service-history`` simulates only a 2-hop line, so a
faster simulator should move the other two most.

Sizes are given for a 30-second run (``NOMINAL_SECONDS``) on a 2-core
machine and scale linearly with ``--seconds``.  The work of a run is a
function of ``--seconds`` and ``--seed`` only, never of how fast the
program is, so a faster program does the same work in less time.  The
traced run uses fixed sizes, so its deterministic counts repeat exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.experiments import ScenarioConfig, ScenarioSpec, TopologyRef
from repro.phy.params import LOW_RATE_PHY
from repro.topology import line_topology, roofnet_scenario

NOMINAL_SECONDS = 30.0

#: Simulated seconds of one ``line-dcf`` round: well past TCP slow start.
LINE_DURATION_S = 1.5
#: Simulated seconds of one ``mesh-ripple`` grid config.
MESH_DURATION_S = 1.0
#: Simulated seconds of one service job: small enough that simulation is
#: negligible next to the store work around it.
JOB_DURATION_S = 0.02
#: Simulated seconds of one ``service-history`` round: the jobs' 2-hop line
#: run locally for long enough that host time is not all network build.
JOB_LINE_DURATION_S = 0.5
#: Finished jobs in the store of the two simulator workloads.
SMALL_HISTORY = 300
#: Fixed Roofnet layout; the seed varies the scenarios run on it.
ROOFNET_LAYOUT_SEED = 7


def job_spec(seed: int, index: int) -> Dict[str, object]:
    """The ``index``-th fresh job of a run: a 2-hop line, scheme D, as a spec document."""
    spec = ScenarioSpec(
        topology=TopologyRef("line", {"n_hops": 2}),
        scheme_label="D",
        duration_s=JOB_DURATION_S,
        seed=seed * 100_000 + index,
    )
    return spec.to_dict()


def history_spec(seed: int, index: int) -> Dict[str, object]:
    """The ``index``-th finished job pre-filled into the store (never run)."""
    return job_spec(seed, 50_000 + index)


def spec_config(document: Dict[str, object]) -> ScenarioConfig:
    return ScenarioSpec.from_dict(document).to_config()


def line_rounds(n_hops: int, duration_s: float) -> Callable[[int, int], List[List[ScenarioConfig]]]:
    """Rounds of one TCP flow along an ``n_hops`` line under DCF, BER 1e-6, a new seed each."""
    topology = line_topology(n_hops)

    def rounds(seed: int, count: int) -> List[List[ScenarioConfig]]:
        return [
            [ScenarioConfig(
                topology=topology,
                scheme_label="D",
                bit_error_rate=1e-6,
                duration_s=duration_s,
                seed=seed * 1000 + index,
            )]
            for index in range(count)
        ]

    return rounds


def mesh_rounds(seed: int, count: int) -> List[List[ScenarioConfig]]:
    """Roofnet, 6 concurrent TCP flows, R1 then R16 on one seed per round."""
    topology = roofnet_scenario(seed=ROOFNET_LAYOUT_SEED)
    return [
        [ScenarioConfig(
            topology=topology,
            phy=LOW_RATE_PHY,
            scheme_label=scheme,
            duration_s=MESH_DURATION_S,
            seed=seed * 1000 + index,
        ) for scheme in ("R1", "R16")]
        for index in range(count)
    ]


@dataclass(frozen=True)
class Workload:
    """One named workload: what each phase runs and how much of it.

    An untraced run is ``slices`` slices (for ``NOMINAL_SECONDS``); each
    slice times one set-up, ``rounds_per_slice`` simulation rounds and
    ``cycles_per_slice`` service cycles, with speed gauges and warm fetches
    between them.  Spreading every metric's samples over the whole run
    averages the host's own speed swings into each of them.  The
    ``trace_*`` sizes are fixed.
    """

    name: str
    why: str
    #: ``(seed, count) -> rounds``; a round's host seconds over its
    #: simulated seconds is one ``host_s_per_sim_s`` sample.
    rounds: Callable[[int, int], List[List[ScenarioConfig]]]
    slices: int
    rounds_per_slice: int
    #: Warm ``SweepRunner.run_one`` fetches of each config of the latest
    #: round after each speed gauge (``bench.untraced``).
    fetches: int
    #: Closed-loop service cycles (submit, drain, status, result).
    cycles_per_slice: int
    #: Finished jobs in the store before the service starts.
    history: int
    #: ``setup_s`` is a server's start-up (else a fresh interpreter's
    #: imports and network build).
    setup_is_server: bool
    trace_rounds: int
    trace_fetches: int
    trace_cycles: int = 15
    #: In-process ``SimulationService.route`` cycles of the traced run.
    probe_cycles: int = 5


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="line-dcf",
            why="5-node line, DCF, one long TCP flow: backoff slot ticks, engine and PHY "
                "dominate; RIPPLE does no work",
            rounds=line_rounds(4, LINE_DURATION_S),
            slices=9,
            rounds_per_slice=1,
            fetches=20,
            cycles_per_slice=8,
            history=SMALL_HISTORY,
            setup_is_server=False,
            trace_rounds=1,
            trace_fetches=10,
        ),
        Workload(
            name="mesh-ripple",
            why="Roofnet, 38 stations, 6 TCP flows under R1/R16: large-N PHY dispatch and "
                "RIPPLE, with sweep-cache writes and warm reads",
            rounds=mesh_rounds,
            slices=10,
            rounds_per_slice=2,
            fetches=10,
            cycles_per_slice=8,
            history=SMALL_HISTORY,
            setup_is_server=False,
            trace_rounds=2,
            trace_fetches=10,
        ),
        Workload(
            name="service-history",
            why="HTTP service over a store of 2,000 finished jobs: record parsing in submit, "
                "claim and metrics dominates; simulation is negligible",
            rounds=line_rounds(2, JOB_LINE_DURATION_S),
            slices=9,
            rounds_per_slice=2,
            fetches=20,
            cycles_per_slice=4,
            history=2000,
            setup_is_server=True,
            trace_rounds=4,
            trace_fetches=10,
        ),
    )
}
