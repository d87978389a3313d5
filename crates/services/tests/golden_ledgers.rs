//! Golden ledgers: the event loop's seeded results, pinned cell by cell.
//!
//! Each cell of a small configuration matrix — every request policy
//! (hedging at a zero delay included), breakers off and on, admission
//! caps loose and binding, deadlines off and tight enough to cancel
//! attempts in flight, and `ShardedRuntime` at 1, 2 and 8 shards on 1
//! and 2 jobs — runs one seeded workload. Its `ledger_digest`,
//! makespan, every `RuntimeReport` tally and five nearest-rank latency
//! quantiles must equal the line recorded for it below. The lines are
//! recorded values, not recomputed by the test: a change to the event
//! loop's data structures must leave every one byte-identical.
//!
//! When a change is *meant* to move a result, the failure message
//! prints the whole recomputed table for review and pasting.

use std::sync::Arc;

use redundancy_services::{
    Backoff, BreakerConfig, InterfaceId, PlannedProvider, RequestPolicy, RuntimeConfig,
    RuntimeReport, ServiceRuntime, ShardedRuntime, SimProvider, Value, Workload,
};

const SEED: u64 = 0x0601_de11;
const REQUESTS: u64 = 2_000;

/// Base latency 20 µs ± 4 µs; spikes stall 400 µs. Provider "b" is sick:
/// it fails half its calls, so breakers trip and failovers fire.
fn pool() -> Vec<Arc<dyn PlannedProvider>> {
    [("a", 0.05, 0.03), ("b", 0.5, 0.15), ("c", 0.02, 0.05)]
        .into_iter()
        .map(|(id, fail, spike)| {
            Arc::new(
                SimProvider::builder(id, InterfaceId::new("golden"))
                    .fail_prob(fail)
                    .latency(20_000, 4_000)
                    .latency_spike(spike, 400_000)
                    .operation("work", |_, _| Ok(Value::Int(1)))
                    .build(),
            ) as Arc<dyn PlannedProvider>
        })
        .collect()
}

fn workload() -> Workload {
    Workload::poisson(REQUESTS, 8_000, "work")
}

const POLICIES: [(&str, RequestPolicy); 4] = [
    ("single", RequestPolicy::Single),
    (
        "hedged",
        RequestPolicy::Hedged {
            delay_ns: 30_000,
            max_hedges: 2,
        },
    ),
    (
        "hedged0",
        RequestPolicy::Hedged {
            delay_ns: 0,
            max_hedges: 1,
        },
    ),
    (
        "failover",
        RequestPolicy::Failover {
            max_attempts: 3,
            backoff: Backoff::Exponential {
                base_ns: 10_000,
                factor: 2,
                cap_ns: 80_000,
            },
        },
    ),
];

const BREAKER: BreakerConfig = BreakerConfig {
    window: 16,
    failure_pct: 50,
    min_samples: 8,
    cooldown_ns: 500_000,
    half_open_probes: 2,
    slow_call_ns: 300_000,
};

/// A deadline shorter than a spike: spiked attempts die in flight.
const TIGHT_DEADLINE_NS: u64 = 150_000;

fn config(policy: RequestPolicy, breaker: bool, capped: bool, deadline: bool) -> RuntimeConfig {
    let (max_in_flight, queue_capacity) = if capped { (4, 8) } else { (4_096, 4_096) };
    RuntimeConfig {
        policy,
        deadline_ns: if deadline { TIGHT_DEADLINE_NS } else { 0 },
        max_in_flight,
        queue_capacity,
        breaker: breaker.then_some(BREAKER),
    }
}

/// One cell's pinned line: every number the runtime reports.
fn line(cell: &str, r: &RuntimeReport) -> String {
    let quantiles = [0.0, 0.5, 0.99, 0.999, 1.0].map(|q| r.latency_quantile(q));
    format!(
        "{cell}: digest={:#018x} makespan={} ok={} failed={} rejected={} deadline={} \
         hedges={}/{}/{} failovers={} peak={}/{} attempts_failed={} breaker={}/{}/{} q={:?}",
        r.ledger_digest(),
        r.makespan_ns,
        r.ok,
        r.failed,
        r.rejected,
        r.deadline_exceeded,
        r.hedges_fired,
        r.hedges_won,
        r.hedges_cancelled,
        r.failovers,
        r.peak_in_flight,
        r.peak_queue_depth,
        r.attempts_failed,
        r.breaker_opens,
        r.breaker_skips,
        r.breaker_shed,
        quantiles,
    )
}

fn single_loop_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, policy) in POLICIES {
        for breaker in [false, true] {
            for capped in [false, true] {
                for deadline in [false, true] {
                    let runtime =
                        ServiceRuntime::new(pool(), config(policy, breaker, capped, deadline));
                    let cell = format!(
                        "{name}/breaker={}/capped={}/deadline={}",
                        u8::from(breaker),
                        u8::from(capped),
                        u8::from(deadline)
                    );
                    lines.push(line(&cell, &runtime.run(&workload(), SEED)));
                }
            }
        }
    }
    lines
}

fn sharded_lines() -> Vec<String> {
    let configs = [
        (
            "hedged-uncoupled",
            config(POLICIES[1].1, false, false, true),
        ),
        ("failover-coupled", config(POLICIES[3].1, true, true, true)),
    ];
    let mut lines = Vec::new();
    for (name, config) in configs {
        for shards in [1, 2, 8] {
            let runtime = ShardedRuntime::new(shards, config, pool);
            for jobs in [1, 2] {
                let cell = format!("{name}/shards={shards}/jobs={jobs}");
                lines.push(line(&cell, &runtime.run_jobs(&workload(), SEED, jobs)));
            }
        }
    }
    lines
}

fn assert_golden(actual: &[String], golden: &[&str]) {
    if actual.iter().map(String::as_str).eq(golden.iter().copied()) {
        return;
    }
    let table: String = actual.iter().map(|l| format!("    \"{l}\",\n")).collect();
    let first = actual
        .iter()
        .zip(golden)
        .position(|(a, g)| a != g)
        .unwrap_or(actual.len().min(golden.len()));
    panic!(
        "ledger drift at cell {first} ({} cells recomputed, {} pinned)\n  \
         pinned:     {:?}\n  recomputed: {:?}\nrecomputed table:\n{table}",
        actual.len(),
        golden.len(),
        golden.get(first),
        actual.get(first),
    );
}

#[test]
fn single_loop_ledgers_match_the_golden_table() {
    assert_golden(&single_loop_lines(), SINGLE_LOOP);
}

#[test]
fn sharded_ledgers_match_the_golden_table() {
    assert_golden(&sharded_lines(), SHARDED);
}

const SINGLE_LOOP: &[&str] = &[
    "single/breaker=0/capped=0/deadline=0: digest=0xe5d0e1935b39247a makespan=16966583 ok=1569 failed=431 rejected=0 deadline=0 hedges=0/0/0 failovers=0 peak=17/0 attempts_failed=431 breaker=0/0/0 q=[Some(20001), Some(22188), Some(423250), Some(423971), Some(423975)]",
    "single/breaker=0/capped=0/deadline=1: digest=0x6183a9a60663ec53 makespan=16966583 ok=1474 failed=371 rejected=0 deadline=155 hedges=0/0/0 failovers=0 peak=12/0 attempts_failed=371 breaker=0/0/0 q=[Some(20001), Some(22045), Some(23960), Some(23995), Some(23996)]",
    "single/breaker=0/capped=1/deadline=0: digest=0x471fe025dc8af791 makespan=16827840 ok=974 failed=286 rejected=740 deadline=0 hedges=0/0/0 failovers=0 peak=4/8 attempts_failed=286 breaker=0/0/0 q=[Some(20017), Some(77597), Some(584622), Some(837006), Some(837006)]",
    "single/breaker=0/capped=1/deadline=1: digest=0xe744eede1ee515a0 makespan=17004216 ok=1422 failed=366 rejected=69 deadline=143 hedges=0/0/0 failovers=0 peak=4/8 attempts_failed=366 breaker=0/0/0 q=[Some(20017), Some(35029), Some(109493), Some(127751), Some(129335)]",
    "single/breaker=1/capped=0/deadline=0: digest=0xf9067945d0cc27a6 makespan=16966583 ok=1870 failed=130 rejected=0 deadline=0 hedges=0/0/0 failovers=0 peak=13/0 attempts_failed=130 breaker=27/580/0 q=[Some(20001), Some(22137), Some(423013), Some(423819), Some(423924)]",
    "single/breaker=1/capped=0/deadline=1: digest=0x0447584aaf99a323 makespan=16966583 ok=1778 failed=124 rejected=0 deadline=98 hedges=0/0/0 failovers=0 peak=11/0 attempts_failed=124 breaker=26/575/0 q=[Some(20001), Some(22042), Some(23971), Some(23995), Some(23996)]",
    "single/breaker=1/capped=1/deadline=0: digest=0xbc3c783d8d33a867 makespan=17090000 ok=1413 failed=123 rejected=464 deadline=0 hedges=0/0/0 failovers=0 peak=4/8 attempts_failed=123 breaker=23/420/0 q=[Some(20017), Some(56813), Some(501180), Some(655126), Some(726643)]",
    "single/breaker=1/capped=1/deadline=1: digest=0x5defe4000131491d makespan=17008390 ok=1732 failed=133 rejected=36 deadline=99 hedges=0/0/0 failovers=0 peak=4/8 attempts_failed=133 breaker=24/518/0 q=[Some(20017), Some(26975), Some(94144), Some(133779), Some(140179)]",
    "hedged/breaker=0/capped=0/deadline=0: digest=0x9abb8af6d65290fc makespan=16996841 ok=1999 failed=1 rejected=0 deadline=0 hedges=914/525/513 failovers=0 peak=11/0 attempts_failed=402 breaker=0/0/0 q=[Some(20001), Some(22753), Some(53919), Some(83869), Some(444244)]",
    "hedged/breaker=0/capped=0/deadline=1: digest=0x94d650369aaa0ac9 makespan=16996841 ok=1998 failed=0 rejected=0 deadline=2 hedges=914/524/515 failovers=0 peak=11/0 attempts_failed=401 breaker=0/0/0 q=[Some(20001), Some(22749), Some(53910), Some(83833), Some(83869)]",
    "hedged/breaker=0/capped=1/deadline=0: digest=0x086128667d9fc4d8 makespan=17051107 ok=1954 failed=1 rejected=45 deadline=0 hedges=883/507/495 failovers=0 peak=4/8 attempts_failed=389 breaker=0/0/0 q=[Some(20001), Some(41553), Some(101520), Some(142940), Some(451538)]",
    "hedged/breaker=0/capped=1/deadline=1: digest=0x318c833f68c2325b makespan=17051107 ok=1959 failed=0 rejected=39 deadline=2 hedges=887/508/499 failovers=0 peak=4/8 attempts_failed=390 breaker=0/0/0 q=[Some(20001), Some(40556), Some(101150), Some(137693), Some(142940)]",
    "hedged/breaker=1/capped=0/deadline=0: digest=0xd633c3584f98d471 makespan=16966583 ok=1999 failed=1 rejected=0 deadline=0 hedges=361/227/227 failovers=0 peak=11/0 attempts_failed=135 breaker=25/625/0 q=[Some(20001), Some(22303), Some(53576), Some(83374), Some(83869)]",
    "hedged/breaker=1/capped=0/deadline=1: digest=0xd633c3584f98d471 makespan=16966583 ok=1999 failed=1 rejected=0 deadline=0 hedges=361/227/227 failovers=0 peak=11/0 attempts_failed=135 breaker=25/625/0 q=[Some(20001), Some(22303), Some(53576), Some(83374), Some(83869)]",
    "hedged/breaker=1/capped=1/deadline=0: digest=0xbabf5e5ca9186d4d makespan=16976408 ok=1999 failed=0 rejected=1 deadline=0 hedges=306/196/193 failovers=0 peak=4/8 attempts_failed=113 breaker=28/702/0 q=[Some(20001), Some(23836), Some(70271), Some(90520), Some(101621)]",
    "hedged/breaker=1/capped=1/deadline=1: digest=0xbabf5e5ca9186d4d makespan=16976408 ok=1999 failed=0 rejected=1 deadline=0 hedges=306/196/193 failovers=0 peak=4/8 attempts_failed=113 breaker=28/702/0 q=[Some(20001), Some(23836), Some(70271), Some(90520), Some(101621)]",
    "hedged0/breaker=0/capped=0/deadline=0: digest=0x97d9a15562c36ac8 makespan=16967055 ok=1980 failed=20 rejected=0 deadline=0 hedges=2000/1049/1642 failovers=0 peak=11/0 attempts_failed=378 breaker=0/0/0 q=[Some(20000), Some(21524), Some(420485), Some(423379), Some(423887)]",
    "hedged0/breaker=0/capped=0/deadline=1: digest=0xdfb38518dafd4bc0 makespan=16967055 ok=1954 failed=18 rejected=0 deadline=28 hedges=2000/1034/1671 failovers=0 peak=10/0 attempts_failed=375 breaker=0/0/0 q=[Some(20000), Some(21497), Some(23909), Some(23991), Some(23995)]",
    "hedged0/breaker=0/capped=1/deadline=0: digest=0x5c4d6d55dc71c96f makespan=16967055 ok=1909 failed=20 rejected=71 deadline=0 hedges=1929/1012/1587 failovers=0 peak=4/8 attempts_failed=362 breaker=0/0/0 q=[Some(20001), Some(25423), Some(421840), Some(480046), Some(491476)]",
    "hedged0/breaker=0/capped=1/deadline=1: digest=0xcc055d1ac9938d69 makespan=16967055 ok=1951 failed=18 rejected=3 deadline=28 hedges=1997/1032/1668 failovers=0 peak=4/8 attempts_failed=375 breaker=0/0/0 q=[Some(20000), Some(22645), Some(55263), Some(83888), Some(87251)]",
    "hedged0/breaker=1/capped=0/deadline=0: digest=0xb27ed9317ac7d9f7 makespan=16966583 ok=1992 failed=8 rejected=0 deadline=0 hedges=2000/1022/1862 failovers=0 peak=11/0 attempts_failed=146 breaker=22/1000/0 q=[Some(20000), Some(21357), Some(23901), Some(422359), Some(423379)]",
    "hedged0/breaker=1/capped=0/deadline=1: digest=0x6042e47c2bfcee37 makespan=16966583 ok=1982 failed=8 rejected=0 deadline=10 hedges=2000/1019/1861 failovers=0 peak=10/0 attempts_failed=157 breaker=22/969/0 q=[Some(20000), Some(21357), Some(23830), Some(23986), Some(23995)]",
    "hedged0/breaker=1/capped=1/deadline=0: digest=0x626e2f375c7f984b makespan=16966583 ok=1982 failed=7 rejected=11 deadline=0 hedges=1989/1008/1862 failovers=0 peak=4/8 attempts_failed=134 breaker=25/1089/0 q=[Some(20000), Some(22549), Some(96181), Some(439152), Some(467841)]",
    "hedged0/breaker=1/capped=1/deadline=1: digest=0xba8d964e368d02a9 makespan=16966583 ok=1981 failed=8 rejected=0 deadline=11 hedges=2000/1008/1866 failovers=0 peak=4/6 attempts_failed=153 breaker=22/951/0 q=[Some(20000), Some(22168), Some(49113), Some(55234), Some(62328)]",
    "failover/breaker=0/capped=0/deadline=0: digest=0x6f3ed2ce9ea62308 makespan=17398821 ok=1999 failed=1 rejected=0 deadline=0 hedges=0/0/0 failovers=451 peak=20/0 attempts_failed=452 breaker=0/0/0 q=[Some(20001), Some(22753), Some(455318), Some(854218), Some(855866)]",
    "failover/breaker=0/capped=0/deadline=1: digest=0x55f248d790b96214 makespan=16999711 ok=1834 failed=0 rejected=0 deadline=166 hedges=0/0/0 failovers=389 peak=14/0 attempts_failed=389 breaker=0/0/0 q=[Some(20001), Some(22510), Some(57795), Some(98336), Some(100318)]",
    "failover/breaker=0/capped=1/deadline=0: digest=0x12b2419c25824ec2 makespan=17126584 ok=1109 failed=1 rejected=890 deadline=0 hedges=0/0/0 failovers=254 peak=4/8 attempts_failed=255 breaker=0/0/0 q=[Some(20230), Some(109450), Some(644508), Some(892073), Some(1064438)]",
    "failover/breaker=0/capped=1/deadline=1: digest=0xd7a54abe52510961 makespan=17050914 ok=1636 failed=0 rejected=210 deadline=154 hedges=0/0/0 failovers=351 peak=4/8 attempts_failed=352 breaker=0/0/0 q=[Some(20017), Some(64324), Some(136039), Some(148073), Some(149048)]",
    "failover/breaker=1/capped=0/deadline=0: digest=0x148dd70bd6b29f2c makespan=16966583 ok=2000 failed=0 rejected=0 deadline=0 hedges=0/0/0 failovers=128 peak=14/0 attempts_failed=128 breaker=28/631/0 q=[Some(20001), Some(22262), Some(423135), Some(453627), Some(453879)]",
    "failover/breaker=1/capped=0/deadline=1: digest=0x1056bd26580a5d32 makespan=16966583 ok=1906 failed=0 rejected=0 deadline=94 hedges=0/0/0 failovers=125 peak=14/0 attempts_failed=125 breaker=28/631/0 q=[Some(20001), Some(22161), Some(56182), Some(96747), Some(97536)]",
    "failover/breaker=1/capped=1/deadline=0: digest=0x93dd6f9f191fb951 makespan=17037798 ok=1462 failed=0 rejected=538 deadline=0 hedges=0/0/0 failovers=116 peak=4/8 attempts_failed=116 breaker=25/429/0 q=[Some(20017), Some(77393), Some(511784), Some(645448), Some(786476)]",
    "failover/breaker=1/capped=1/deadline=1: digest=0xa6683377310393b0 makespan=17016823 ok=1851 failed=0 rejected=59 deadline=90 hedges=0/0/0 failovers=119 peak=4/8 attempts_failed=119 breaker=27/628/0 q=[Some(20017), Some(34096), Some(113204), Some(130889), Some(148279)]",
];

const SHARDED: &[&str] = &[
    "hedged-uncoupled/shards=1/jobs=1: digest=0x94d650369aaa0ac9 makespan=16996841 ok=1998 failed=0 rejected=0 deadline=2 hedges=914/524/515 failovers=0 peak=11/0 attempts_failed=401 breaker=0/0/0 q=[Some(20001), Some(22749), Some(53910), Some(83833), Some(83869)]",
    "hedged-uncoupled/shards=1/jobs=2: digest=0x94d650369aaa0ac9 makespan=16996841 ok=1998 failed=0 rejected=0 deadline=2 hedges=914/524/515 failovers=0 peak=11/0 attempts_failed=401 breaker=0/0/0 q=[Some(20001), Some(22749), Some(53910), Some(83833), Some(83869)]",
    "hedged-uncoupled/shards=2/jobs=1: digest=0x94d650369aaa0ac9 makespan=16996841 ok=1998 failed=0 rejected=0 deadline=2 hedges=914/524/515 failovers=0 peak=12/0 attempts_failed=401 breaker=0/0/0 q=[Some(20001), Some(22749), Some(53910), Some(83833), Some(83869)]",
    "hedged-uncoupled/shards=2/jobs=2: digest=0x94d650369aaa0ac9 makespan=16996841 ok=1998 failed=0 rejected=0 deadline=2 hedges=914/524/515 failovers=0 peak=12/0 attempts_failed=401 breaker=0/0/0 q=[Some(20001), Some(22749), Some(53910), Some(83833), Some(83869)]",
    "hedged-uncoupled/shards=8/jobs=1: digest=0x94d650369aaa0ac9 makespan=16996841 ok=1998 failed=0 rejected=0 deadline=2 hedges=914/524/515 failovers=0 peak=16/0 attempts_failed=401 breaker=0/0/0 q=[Some(20001), Some(22749), Some(53910), Some(83833), Some(83869)]",
    "hedged-uncoupled/shards=8/jobs=2: digest=0x94d650369aaa0ac9 makespan=16996841 ok=1998 failed=0 rejected=0 deadline=2 hedges=914/524/515 failovers=0 peak=16/0 attempts_failed=401 breaker=0/0/0 q=[Some(20001), Some(22749), Some(53910), Some(83833), Some(83869)]",
    "failover-coupled/shards=1/jobs=1: digest=0xa6683377310393b0 makespan=17016823 ok=1851 failed=0 rejected=59 deadline=90 hedges=0/0/0 failovers=119 peak=4/8 attempts_failed=119 breaker=27/628/0 q=[Some(20017), Some(34096), Some(113204), Some(130889), Some(148279)]",
    "failover-coupled/shards=1/jobs=2: digest=0xa6683377310393b0 makespan=17016823 ok=1851 failed=0 rejected=59 deadline=90 hedges=0/0/0 failovers=119 peak=4/8 attempts_failed=119 breaker=27/628/0 q=[Some(20017), Some(34096), Some(113204), Some(130889), Some(148279)]",
    "failover-coupled/shards=2/jobs=1: digest=0xcbec0db818e2da02 makespan=16993576 ok=1768 failed=0 rejected=128 deadline=104 hedges=0/0/0 failovers=154 peak=4/8 attempts_failed=155 breaker=44/474/0 q=[Some(20017), Some(35882), Some(134169), Some(148002), Some(149473)]",
    "failover-coupled/shards=2/jobs=2: digest=0xcbec0db818e2da02 makespan=16993576 ok=1768 failed=0 rejected=128 deadline=104 hedges=0/0/0 failovers=154 peak=4/8 attempts_failed=155 breaker=44/474/0 q=[Some(20017), Some(35882), Some(134169), Some(148002), Some(149473)]",
    "failover-coupled/shards=8/jobs=1: digest=0xcde7e423a567e8d3 makespan=16999711 ok=1784 failed=0 rejected=88 deadline=128 hedges=0/0/0 failovers=267 peak=8/8 attempts_failed=267 breaker=90/250/0 q=[Some(20001), Some(22695), Some(125878), Some(144047), Some(145740)]",
    "failover-coupled/shards=8/jobs=2: digest=0xcde7e423a567e8d3 makespan=16999711 ok=1784 failed=0 rejected=88 deadline=128 hedges=0/0/0 failovers=267 peak=8/8 attempts_failed=267 breaker=90/250/0 q=[Some(20001), Some(22695), Some(125878), Some(144047), Some(145740)]",
];
