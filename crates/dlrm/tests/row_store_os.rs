//! What the operating system sees of an `EmbeddingTable`'s row store:
//! dropping a table returns its address space, and a table of many huge
//! pages is actually backed by them where the host allows.
//!
//! Both checks read process-wide `/proc/self` files, so they run one after
//! the other inside a single `#[test]`: a second test thread starting up
//! reserves a 64 MB malloc arena, which would land in the middle of the
//! `VmSize` comparison.
#![cfg(target_os = "linux")]

use centaur_dlrm::EmbeddingTable;

const MB: usize = 1 << 20;

/// `VmSize` in bytes, from the first field of `/proc/self/statm` (pages).
fn vm_size_bytes() -> usize {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("read /proc/self/statm");
    let pages: usize = statm
        .split_whitespace()
        .next()
        .and_then(|field| field.parse().ok())
        .expect("statm starts with the VmSize page count");
    // statm counts in the kernel's page size; every Linux target this test
    // builds for defaults to 4 KB, and a larger page only widens the band.
    pages * 4096
}

#[test]
fn the_os_sees_tables_unmapped_on_drop_and_on_huge_pages() {
    dropping_tables_returns_their_address_space();
    a_written_table_sits_on_transparent_huge_pages_where_the_host_allows();
}

fn dropping_tables_returns_their_address_space() {
    let table_bytes = 32 * MB;
    let before = vm_size_bytes();
    for seed in 0..64 {
        let table = EmbeddingTable::random(table_bytes / 128, 32, seed);
        assert_eq!(table.size_bytes(), table_bytes);
        // Touch both ends so the table is really resident when dropped.
        assert_ne!(table.as_slice()[0], table.as_slice()[table_bytes / 4 - 1]);
    }
    let after = vm_size_bytes();
    assert!(
        after.abs_diff(before) <= table_bytes,
        "VmSize moved from {before} to {after} bytes over 64 x 32 MB tables: drop leaks mappings"
    );
}

/// Bytes of `AnonHugePages` in the `/proc/self/smaps` entries that overlap
/// `[start, end)`.
fn anon_huge_bytes_over(start: usize, end: usize) -> usize {
    let smaps = std::fs::read_to_string("/proc/self/smaps").expect("read /proc/self/smaps");
    let mut overlaps = false;
    let mut huge_kb = 0;
    for line in smaps.lines() {
        let mut fields = line.split_whitespace();
        let first = fields.next().unwrap_or("");
        if let Some((lo, hi)) = first.split_once('-') {
            // A mapping header: `lo-hi perms offset dev inode [path]`.
            if let (Ok(lo), Ok(hi)) = (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
            {
                overlaps = lo < end && start < hi;
                continue;
            }
        }
        if overlaps && first == "AnonHugePages:" {
            huge_kb += fields
                .next()
                .and_then(|kb| kb.parse::<usize>().ok())
                .expect("AnonHugePages: <n> kB");
        }
    }
    huge_kb * 1024
}

fn a_written_table_sits_on_transparent_huge_pages_where_the_host_allows() {
    let knob = "/sys/kernel/mm/transparent_hugepage/enabled";
    let mode = match std::fs::read_to_string(knob) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("skipped: cannot read {knob} ({e}); no transparent huge pages here");
            return;
        }
    };
    if !(mode.contains("[madvise]") || mode.contains("[always]")) {
        eprintln!(
            "skipped: {knob} is `{}`; the row store's madvise is refused and tables stay on \
             small pages, as before",
            mode.trim()
        );
        return;
    }
    if !cfg!(any(target_arch = "x86_64", target_arch = "aarch64")) {
        eprintln!("skipped: the row store maps its own region on x86-64 and AArch64 only");
        return;
    }
    let table_bytes = 64 * MB;
    let table = EmbeddingTable::random(table_bytes / 128, 32, 11);
    let start = table.as_slice().as_ptr() as usize;
    assert_eq!(start % (2 * MB), 0, "a 64 MB table starts on a huge page");
    let huge = anon_huge_bytes_over(start, start + table_bytes);
    assert!(
        huge >= table_bytes / 2,
        "only {huge} of {table_bytes} table bytes are AnonHugePages with THP `{}`",
        mode.trim()
    );
}
