//! Microbenchmarks for the dense scheduler core's two hottest
//! primitives: the move-frame computation (`Placement::frame`) and
//! `Grid::is_free_for` on its three hot shapes —
//! an empty cell (one mask test), a single-occupant cell (fast reject
//! without touching the mutex side list), a mutex-shared cell (the side
//! list walk) — plus the memory-bank access-conflict scan that builds
//! `af_steps`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hls_celllib::{OpKind, TimingSpec};
use hls_dfg::{Dfg, DfgBuilder, FuClass, NodeId, SignalId, SignalSource};
use hls_schedule::{CStep, FuIndex, Grid, Slot, TimeFrames, UnitId};
use moveframe::Placement;

/// `layers × width` single-cycle adds, each consuming two outputs of the
/// previous layer — the fixed-depth, growing-width shape of the
/// `core_scaling` sweep, small enough to probe per-call costs.
fn layered_adds(layers: usize, width: usize) -> Dfg {
    let mut b = DfgBuilder::new("bench");
    let x = b.input("x");
    let mut prev: Vec<SignalId> = vec![x; width];
    for l in 0..layers {
        let mut next = Vec::with_capacity(width);
        for w in 0..width {
            let left = prev[w];
            let right = prev[(w + 1) % width];
            next.push(
                b.op(&format!("n{l}_{w}"), OpKind::Add, &[left, right])
                    .unwrap(),
            );
        }
        prev = next;
    }
    b.finish().unwrap()
}

fn node(dfg: &Dfg, l: usize, w: usize) -> NodeId {
    dfg.node_by_name(&format!("n{l}_{w}")).unwrap()
}

fn bench_compute_move_frame(c: &mut Criterion) {
    const LAYERS: usize = 16;
    const WIDTH: usize = 16;
    let spec = TimingSpec::uniform_single_cycle();
    let dfg = layered_adds(LAYERS, WIDTH);
    let cs = LAYERS as u32 + 4;
    let frames = TimeFrames::compute(&dfg, &spec, cs).unwrap();
    let class = FuClass::Op(OpKind::Add);

    // Schedule the first half at ASAP, leaving the second half for the
    // probes: their frames see real predecessor bounds and a half-full
    // grid.
    let mut placement = Placement::new(&dfg, &spec, None, frames);
    let mut grid = Grid::new(cs, WIDTH as u32);
    for l in 0..LAYERS / 2 {
        for w in 0..WIDTH {
            let n = node(&dfg, l, w);
            let step = CStep::new(l as u32 + 1);
            let fu = FuIndex::new(w as u32 + 1);
            placement.assign(
                n,
                Slot {
                    step,
                    unit: UnitId::Fu { class, index: fu },
                },
            );
            grid.occupy(&dfg, n, step, fu, 1);
        }
    }

    let mut group = c.benchmark_group("compute-move-frame");
    group.bench_function("half-scheduled-256", |b| {
        b.iter(|| {
            let mut positions = 0usize;
            for l in LAYERS / 2..LAYERS {
                for w in 0..WIDTH {
                    let (snap, _) = placement.frame(node(&dfg, l, w), &grid, WIDTH as u32, true);
                    positions += snap.movable.len();
                }
            }
            black_box(positions)
        })
    });
    group.finish();
}

fn bench_is_free_for(c: &mut Criterion) {
    let mut b = DfgBuilder::new("g");
    let x = b.input("x");
    let plain = b.op("plain", OpKind::Add, &[x, x]).unwrap();
    let probe_plain = b.op("probe_plain", OpKind::Add, &[x, x]).unwrap();
    let branch = b.begin_branch();
    b.enter_arm(branch, 0);
    let t = b.op("t", OpKind::Add, &[x, x]).unwrap();
    let u = b.op("u", OpKind::Add, &[x, x]).unwrap();
    b.exit_arm();
    b.enter_arm(branch, 1);
    let e = b.op("e", OpKind::Add, &[x, x]).unwrap();
    b.exit_arm();
    let dfg = b.finish().unwrap();
    let by = |sig: SignalId| match dfg.signal(sig).source() {
        SignalSource::Node(n) => n,
        _ => unreachable!("op outputs come from nodes"),
    };
    let (plain, probe_plain, t, u, e) = (by(plain), by(probe_plain), by(t), by(u), by(e));

    let cs = 8;
    let mut grid = Grid::new(cs, 4);
    // Column 1, step 1: a single top-level occupant.
    grid.occupy(&dfg, plain, CStep::new(1), FuIndex::new(1), 1);
    // Column 2, step 1: a mutex-shared cell (both arms of the branch).
    grid.occupy(&dfg, t, CStep::new(1), FuIndex::new(2), 1);
    grid.occupy(&dfg, e, CStep::new(1), FuIndex::new(2), 1);

    let mut group = c.benchmark_group("grid-is-free-for");
    group.bench_function("empty-cell", |b| {
        b.iter(|| {
            black_box(grid.is_free_for(
                &dfg,
                black_box(probe_plain),
                CStep::new(2),
                FuIndex::new(3),
                1,
            ))
        })
    });
    group.bench_function("single-occupant", |b| {
        b.iter(|| {
            black_box(grid.is_free_for(
                &dfg,
                black_box(probe_plain),
                CStep::new(1),
                FuIndex::new(1),
                1,
            ))
        })
    });
    group.bench_function("mutex-shared", |b| {
        // `u` is exclusive with `e` but shares an arm with `t`: the
        // probe must walk the shared-cell side list to reject.
        b.iter(|| {
            black_box(grid.is_free_for(&dfg, black_box(u), CStep::new(1), FuIndex::new(2), 1))
        })
    });
    group.finish();
}

fn bench_mem_af_scan(c: &mut Criterion) {
    let mut b = DfgBuilder::new("mem");
    let i = b.input("i");
    let bank = b.declare_bank("ram", 1);
    let arr = b.declare_array("a", 64, bank);
    let mut loads = Vec::new();
    for k in 0..5 {
        loads.push(b.load(&format!("ld{k}"), arr, i).unwrap());
    }
    let dfg = b.finish().unwrap();
    let loads: Vec<NodeId> = loads
        .iter()
        .map(|&s| match dfg.signal(s).source() {
            SignalSource::Node(n) => n,
            _ => unreachable!("load outputs come from nodes"),
        })
        .collect();

    let spec = TimingSpec::uniform_single_cycle();
    let cs = 8;
    let frames = TimeFrames::compute(&dfg, &spec, cs).unwrap();
    let mut placement = Placement::new(&dfg, &spec, None, frames);
    let class = dfg.node(loads[0]).kind().fu_class();
    let mut grid = Grid::new(cs, 1);
    // Saturate the single port for steps 1–4; the probe's frame must
    // carve those steps into `af_steps`.
    for (k, &ld) in loads.iter().take(4).enumerate() {
        let step = CStep::new(k as u32 + 1);
        placement.assign(
            ld,
            Slot {
                step,
                unit: UnitId::Fu {
                    class,
                    index: FuIndex::new(1),
                },
            },
        );
        grid.occupy(&dfg, ld, step, FuIndex::new(1), 1);
    }

    let mut group = c.benchmark_group("mem-af-scan");
    group.bench_function("saturated-port", |b| {
        b.iter(|| {
            let (snap, _) = placement.frame(black_box(loads[4]), &grid, 1, true);
            black_box((snap.af_steps.len(), snap.movable.len()))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(40);
    targets = bench_compute_move_frame, bench_is_free_for, bench_mem_af_scan
}
criterion_main!(benches);
