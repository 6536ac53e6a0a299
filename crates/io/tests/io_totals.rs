//! `io_lines_read` / `io_bytes_read` are reported once per buffer refill,
//! not once per line — and still add up to exactly what a per-line report
//! gave: every line read (newline-terminated ones plus a final
//! unterminated one) and every byte of the file.
//!
//! Its own test binary, and a single test: the counters are process-global.

use ld_io::{ms, text, MatrixFormat};
use ld_trace::{IoMetrics, MetricsReport};
use std::io::BufReader;

fn totals_after(f: impl FnOnce()) -> Vec<IoMetrics> {
    ld_trace::reset();
    f();
    MetricsReport::capture().io
}

#[test]
fn totals_equal_the_lines_and_bytes_of_the_file() {
    let g = ld_data::HaplotypeSimulator::new(150, 700)
        .seed(9)
        .generate();
    let write = |format: MatrixFormat| {
        let mut bytes = Vec::new();
        format.write(&mut bytes, &g).unwrap();
        bytes
    };
    // 2 header lines, blank, `//`, segsites, positions, then the rows
    let ms_bytes = write(MatrixFormat::Ms);
    let txt_bytes = write(MatrixFormat::Text);
    let mut txt_unterminated = txt_bytes.clone();
    assert_eq!(txt_unterminated.pop(), Some(b'\n'));

    // refills from every row to never
    for cap in [1, 700, 701, 8 << 10, 1 << 20] {
        for (format, bytes, lines) in [
            ("ms", &ms_bytes, 150 + 6),
            ("matrix", &txt_bytes, 150),
            ("matrix", &txt_unterminated, 150),
        ] {
            let want = vec![IoMetrics {
                format,
                lines_read: lines,
                bytes_read: bytes.len() as u64,
            }];
            let got = totals_after(|| {
                let r = BufReader::with_capacity(cap, bytes.as_slice());
                let parsed = match format {
                    "ms" => ms::read_ms_first(r).unwrap().matrix,
                    _ => text::read_matrix(r).unwrap(),
                };
                assert_eq!(parsed, g);
            });
            assert_eq!(got, want, "{format}, {cap}-byte buffer");
        }
    }

    // a reader that stops early reports what it read: the line that failed
    // is the last one counted
    let got = totals_after(|| {
        assert!(text::read_matrix("01\n10\n1x\n11\n".as_bytes()).is_err());
    });
    assert_eq!(
        got,
        vec![IoMetrics {
            format: "matrix",
            lines_read: 3,
            bytes_read: 9
        }]
    );
}
