//! A report that cannot be written to stdout is an io error (exit 3), as
//! a failed `--out` or `--metrics-out` write is, never a panic (exit
//! 101). Stdout goes to `/dev/full`, where every write fails with
//! ENOSPC.

#![cfg(target_os = "linux")]

use std::fs::File;
use std::process::{Command, Stdio};

#[test]
fn stdout_write_failures_exit_3() {
    let input = std::env::temp_dir().join(format!("nwhy-stdout-{}.hgr", std::process::id()));
    std::fs::write(&input, "0 1 2\n1 2 3\n3 4\n").expect("write input");
    for args in [&["cc"][..], &["stats", "--metrics"][..]] {
        let full = File::options()
            .write(true)
            .open("/dev/full")
            .expect("open /dev/full");
        let status = Command::new(env!("CARGO_BIN_EXE_nwhy-cli"))
            .arg(args[0])
            .arg(&input)
            .args(&args[1..])
            .stdout(full)
            .stderr(Stdio::null())
            .status()
            .expect("run nwhy-cli");
        assert_eq!(status.code(), Some(3), "nwhy-cli {args:?} > /dev/full");
    }
    std::fs::remove_file(&input).expect("remove input");
}
