//! Deterministic tests of the benchmark's pure helpers.

use perfbench::*;

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn nearest_rank_rule() {
    assert_eq!(nearest_rank(0, 50.0), 0);
    assert_eq!(nearest_rank(1, 99.0), 1);
    assert_eq!(nearest_rank(10, 50.0), 5);
    assert_eq!(nearest_rank(1000, 99.0), 990);
    assert_eq!(nearest_rank(1001, 99.0), 991);
    assert_eq!(nearest_rank(5, 0.0), 1);
}

#[test]
fn percentiles_and_their_support() {
    let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    let p = Percentiles::of(&samples);
    assert_eq!(p.count, 1000);
    assert_eq!(p.p50, 500.0);
    assert_eq!(p.p99, 990.0);
    assert_eq!(p.beyond_p99, 10);

    let few: Vec<f64> = (1..=200).map(f64::from).collect();
    let p = Percentiles::of(&few);
    assert_eq!(p.p99, 198.0);
    assert_eq!(p.beyond_p99, 2);

    let none = Percentiles::of(&[]);
    assert_eq!(
        (none.count, none.p50, none.p99, none.beyond_p99),
        (0, 0.0, 0.0, 0)
    );
}

#[test]
fn highest_supported_percentile_needs_ten_beyond() {
    let ladder = [50.0, 90.0, 99.0, 99.9];
    assert_eq!(highest_supported_percentile(0, &ladder), None);
    assert_eq!(highest_supported_percentile(15, &ladder), None);
    assert_eq!(highest_supported_percentile(20, &ladder), Some(50.0));
    assert_eq!(highest_supported_percentile(100, &ladder), Some(90.0));
    assert_eq!(highest_supported_percentile(999, &ladder), Some(90.0));
    assert_eq!(highest_supported_percentile(1000, &ladder), Some(99.0));
    assert_eq!(highest_supported_percentile(10_000, &ladder), Some(99.9));
}

#[test]
fn poisson_schedule_is_seeded() {
    let w = [0.4, 0.3, 0.15, 0.15];
    let a = poisson_schedule(7, 100.0, 20.0, &w);
    let b = poisson_schedule(7, 100.0, 20.0, &w);
    let c = poisson_schedule(8, 100.0, 20.0, &w);
    assert_eq!(a, b);
    assert_ne!(a, c);
}

#[test]
fn poisson_schedule_shape() {
    let w = [0.4, 0.3, 0.15, 0.15];
    let s = poisson_schedule(11, 100.0, 50.0, &w);
    assert_eq!(s.len(), 5000);
    assert!(s.windows(2).all(|p| p[0].at_s <= p[1].at_s));
    assert!(s.iter().all(|a| (0.0..50.0).contains(&a.at_s)));
    // Each kind gets its share to within one request.
    for (kind, &weight) in w.iter().enumerate() {
        let n = s.iter().filter(|a| a.kind == kind).count() as f64;
        assert!((n - weight * 5000.0).abs() <= 1.0, "kind {kind}: {n}");
    }
    // Uniform send times: each tenth of the window holds about a tenth.
    for tenth in 0..10 {
        let lo = tenth as f64 * 5.0;
        let n = s
            .iter()
            .filter(|a| a.at_s >= lo && a.at_s < lo + 5.0)
            .count();
        assert!((430..=570).contains(&n), "tenth {tenth}: {n}");
    }
    // Kinds are spread over the window, not laid out in blocks.
    let first_half_muls = s[..2500].iter().filter(|a| a.kind == 2).count();
    assert!((300..=450).contains(&first_half_muls), "{first_half_muls}");
    // Gaps look exponential: the squared coefficient of variation is near 1.
    let gaps: Vec<f64> = s.windows(2).map(|p| p[1].at_s - p[0].at_s).collect();
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
    assert!((mean - 0.01).abs() < 0.0005, "mean gap {mean}");
    assert!(
        (var / (mean * mean) - 1.0).abs() < 0.1,
        "cv2 {}",
        var / (mean * mean)
    );
}

#[test]
fn poisson_schedule_zero_weight_kind_never_drawn() {
    let s = poisson_schedule(3, 200.0, 10.0, &[1.0, 0.0, 1.0]);
    assert_eq!(s.len(), 2000);
    assert!(s.iter().all(|a| a.kind != 1));
}

#[test]
fn ladder_subtracts_inner_rungs() {
    // core, router call, dispatch_frame, client call.
    let samples = [
        [10.0, 13.0, 13.5, 17.0],
        [11.0, 15.0, 15.2, 18.2],
        [9.0, 12.5, 13.0, 16.0],
    ];
    let [engine, router, net] = ladder_self_times(&samples);
    assert_eq!(engine, 3.5);
    assert_eq!(router, 0.5);
    assert_eq!(net, 3.0);
    assert_eq!(ladder_self_times(&[]), [0.0, 0.0, 0.0]);
}

#[test]
fn closure_ratio_and_band() {
    assert_eq!(closure(&[2.0, 3.0, 5.0], 10.0), 1.0);
    assert_eq!(closure(&[1.0], 0.0), 0.0);
    assert!(closure_holds(0.9) && closure_holds(1.1) && closure_holds(1.0));
    assert!(!closure_holds(0.89) && !closure_holds(1.2));
}

#[test]
fn abs_ln_treats_over_and_under_alike() {
    assert_eq!(abs_ln(1.0), 0.0);
    assert!((abs_ln(2.0) - abs_ln(0.5)).abs() < 1e-12);
    assert!(abs_ln(1.05) < abs_ln(0.5) && abs_ln(0.5) < abs_ln(3.0));
}
