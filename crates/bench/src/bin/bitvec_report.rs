//! E5–E6: the bitvector substrates of §4.1 and §4.2.
//!
//! * E5 (Theorem 4.5): append-only bitvector — Append/Access/Rank flat in
//!   `n`; space tracks `nH0(β) + o(n)` across densities.
//! * E6 (Theorem 4.9 + Remark 4.2): dynamic RLE+γ bitvector — all ops
//!   O(log n); `Init(b, n)` constant-time/-space regardless of `n`, the
//!   property that rules out gap-encoded and plain bitvectors.

use wt_bench::{fmt_ns, time_per_op_ns, Table};
use wt_bits::entropy::bitvec_h0_bits;
use wt_bits::{
    AppendBitVec, BitAccess, BitRank, BitSelect, DynamicBitVec, Fid, RawBitVec, RrrVector,
    SpaceUsage,
};
use wt_workloads::xorshift;

fn main() {
    // ---------- E5: append-only bitvector ---------------------------------
    println!("== E5: append-only bitvector (§4.1, Thm 4.5) ==\n");
    let t = Table::new(
        &["n", "append", "access", "rank", "select", "bits/bit", "H0"],
        &[9, 9, 9, 9, 9, 9, 6],
    );
    for &n in &[100_000usize, 400_000, 1_600_000] {
        let mut next = xorshift(42);
        let mut v = AppendBitVec::new();
        let append = {
            let t0 = std::time::Instant::now();
            for _ in 0..n {
                v.push(next().is_multiple_of(10));
            }
            t0.elapsed().as_nanos() as f64 / n as f64
        };
        let mut i = 0usize;
        let access = time_per_op_ns(5000, 3, || {
            i = (i + 7919) % n;
            std::hint::black_box(v.get(i));
        });
        let rank = time_per_op_ns(5000, 3, || {
            i = (i + 7919) % n;
            std::hint::black_box(v.rank1(i));
        });
        let ones = v.count_ones();
        let select = time_per_op_ns(5000, 3, || {
            i = (i + 7919) % ones;
            std::hint::black_box(v.select1(i));
        });
        let h0 = bitvec_h0_bits(ones, n) / n as f64;
        t.row(&[
            &n.to_string(),
            &fmt_ns(append),
            &fmt_ns(access),
            &fmt_ns(rank),
            &fmt_ns(select),
            &format!("{:.3}", v.size_bits() as f64 / n as f64),
            &format!("{h0:.3}"),
        ]);
    }
    println!("\nexpected: all time columns flat in n (O(1)); bits/bit → H0 + o(1).\n");

    // Space across densities, vs RRR / plain FID.
    println!("space vs density at n = 1M (bits/bit):");
    let t = Table::new(&["density", "H0", "append", "RRR", "Fid"], &[9, 7, 8, 8, 8]);
    let n = 1_000_000;
    for &d in &[2u64, 10, 100, 1000] {
        let mut next = xorshift(7);
        let raw = RawBitVec::from_bits((0..n).map(|_| next().is_multiple_of(d)));
        let ones = raw.count_ones();
        let mut app = AppendBitVec::new();
        for b in raw.iter() {
            app.push(b);
        }
        let rrr = RrrVector::new(&raw);
        let fid = Fid::new(raw.clone());
        t.row(&[
            &format!("1/{d}"),
            &format!("{:.3}", bitvec_h0_bits(ones, n) / n as f64),
            &format!("{:.3}", app.size_bits() as f64 / n as f64),
            &format!("{:.3}", rrr.size_bits() as f64 / n as f64),
            &format!("{:.3}", fid.size_bits() as f64 / n as f64),
        ]);
    }

    // ---------- E6: dynamic RLE+γ bitvector --------------------------------
    println!("\n== E6: fully dynamic bitvector (§4.2, Thm 4.9) ==\n");
    let t = Table::new(
        &["n", "insert", "delete", "rank", "select", "bits/bit"],
        &[9, 9, 9, 9, 9, 9],
    );
    for &n in &[10_000usize, 40_000, 160_000, 640_000] {
        let mut next = xorshift(3);
        let mut v = DynamicBitVec::new();
        for _ in 0..n {
            v.push(next().is_multiple_of(8));
        }
        let mut i = 0usize;
        let insert = time_per_op_ns(2000, 3, || {
            i = (i + 7919) % n;
            v.insert(i, i.is_multiple_of(2));
            v.remove(i);
        }) / 2.0;
        let delete = insert; // measured jointly to keep n fixed
        let rank = time_per_op_ns(2000, 3, || {
            i = (i + 7919) % n;
            std::hint::black_box(v.rank1(i));
        });
        let ones = v.count_ones();
        let select = time_per_op_ns(2000, 3, || {
            i = (i + 7919) % ones;
            std::hint::black_box(v.select1(i));
        });
        t.row(&[
            &n.to_string(),
            &fmt_ns(insert),
            &fmt_ns(delete),
            &fmt_ns(rank),
            &fmt_ns(select),
            &format!("{:.3}", v.size_bits() as f64 / n as f64),
        ]);
    }
    println!("\nexpected: time columns grow ~log n.\n");

    // Init(b, n): the Remark 4.2 property.
    println!("Init(b, n) cost (Remark 4.2: must not be Ω(n/w)):");
    let t = Table::new(
        &["n", "Init RLE+γ", "Init plain", "RLE bits"],
        &[12, 12, 12, 10],
    );
    for &n in &[1_000usize, 1_000_000, 1_000_000_000] {
        let init = time_per_op_ns(100, 3, || {
            std::hint::black_box(DynamicBitVec::filled(true, n));
        });
        // A plain bitvector must materialize n bits.
        let plain = if n <= 1_000_000 {
            time_per_op_ns(10, 3, || {
                std::hint::black_box(RawBitVec::filled(true, n));
            })
        } else {
            f64::NAN // too slow to bother; the point is made
        };
        let v = DynamicBitVec::filled(true, n);
        t.row(&[
            &n.to_string(),
            &fmt_ns(init),
            &(if plain.is_nan() {
                "(skipped)".into()
            } else {
                fmt_ns(plain)
            }),
            &v.size_bits().to_string(),
        ]);
    }
    println!("\nexpected: RLE Init flat (a single run); plain Init linear in n.");
}
