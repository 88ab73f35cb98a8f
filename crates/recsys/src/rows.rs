//! Row storage for embedding tables, laid out for the gather.
//!
//! A row that starts mid-line spans one line more than it fills, and a
//! large table on 4 KiB pages makes each random lookup pay a page walk.
//! So the rows start on a boundary inside a zeroed `Vec` padded by one
//! alignment unit: 2 MiB for tables of 2 MiB or more, advised
//! `MADV_HUGEPAGE` before their first write; 128 B (two lines) for
//! smaller ones. The padding is never written, so it costs address
//! space, not resident memory.

use std::fmt;

/// Alignment of a table of at least this many bytes: one huge page.
const HUGE_PAGE: usize = 2 << 20;

/// Alignment of a smaller table: two cache lines, so a row of 32 floats
/// sits on exactly two.
const LINE_PAIR: usize = 128;

/// `rows × dim` floats, row-major, row 0 on a [`HUGE_PAGE`] or
/// [`LINE_PAIR`] boundary.
pub(crate) struct AlignedRows {
    buf: Vec<f32>,
    /// Index in `buf` of row 0's first element.
    start: usize,
    rows: usize,
    dim: usize,
}

impl AlignedRows {
    /// Lays out `rows × dim` floats, row-major, written by `fill`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub(crate) fn laid_out(rows: usize, dim: usize, fill: impl FnOnce(&mut [f32])) -> Self {
        assert!(rows > 0 && dim > 0, "embedding table dimensions must be non-zero");
        let len = rows * dim;
        let align = if 4 * len >= HUGE_PAGE { HUGE_PAGE } else { LINE_PAIR };
        let mut buf = vec![0.0f32; len + align / 4];
        let start = (align - buf.as_ptr() as usize % align) % align / 4;
        let table = &mut buf[start..start + len];
        if align == HUGE_PAGE {
            advise_huge_pages(table);
        }
        fill(table);
        AlignedRows { buf, start, rows, dim }
    }

    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row {i} out of bounds");
        let at = self.start + i * self.dim;
        &self.buf[at..at + self.dim]
    }

    /// Every row, back to back.
    fn values(&self) -> &[f32] {
        &self.buf[self.start..self.start + self.rows * self.dim]
    }
}

/// A copy laid out afresh: a copied `buf` keeps `start` but not the
/// address it was measured from.
impl Clone for AlignedRows {
    fn clone(&self) -> Self {
        AlignedRows::laid_out(self.rows, self.dim, |table| table.copy_from_slice(self.values()))
    }
}

/// Equal shape and rows; the padding is not compared.
impl PartialEq for AlignedRows {
    fn eq(&self, other: &Self) -> bool {
        (self.rows, self.dim) == (other.rows, other.dim) && self.values() == other.values()
    }
}

/// The shape only, not the rows.
impl fmt::Debug for AlignedRows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlignedRows").field("rows", &self.rows).field("dim", &self.dim).finish()
    }
}

/// Asks the kernel to back `range` with transparent huge pages, through
/// a raw `madvise` syscall (there is no libc binding to call). The
/// result is ignored: where the advice is refused (THP set to `never`)
/// the table works the same, on 4 KiB pages.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn advise_huge_pages(range: &[f32]) {
    const SYS_MADVISE: usize = 28;
    const MADV_HUGEPAGE: usize = 14;
    // SAFETY: `range` is a live, page-aligned allocation. MADV_HUGEPAGE
    // changes neither its contents nor its protection, only which page
    // size backs it. The `syscall` instruction clobbers exactly rax
    // (the result), rcx and r11, all declared, and touches no stack.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_MADVISE => _,
            in("rdi") range.as_ptr(),
            in("rsi") std::mem::size_of_val(range),
            in("rdx") MADV_HUGEPAGE,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn advise_huge_pages(_range: &[f32]) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::EmbeddingTable;
    use enw_numerics::matrix::Matrix;
    use enw_numerics::rng::Rng64;

    /// A table under 2 MiB, one of exactly 2 MiB and one filled in two
    /// chunks, with the boundary each must start on.
    const SHAPES: [(usize, usize, usize); 3] =
        [(300, 17, LINE_PAIR), (16_384, 32, HUGE_PAGE), (40_000, 32, HUGE_PAGE)];

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn starts_on(table: &EmbeddingTable, align: usize) -> bool {
        (table.row(0).as_ptr() as usize).is_multiple_of(align)
    }

    #[test]
    fn rows_are_drawn_as_matrix_random_uniform_draws_them() {
        for (rows, dim, _) in SHAPES {
            let (mut filled, mut drawn) = (Rng64::new(3), Rng64::new(3));
            let table = EmbeddingTable::random(rows, dim, &mut filled);
            let matrix = Matrix::random_uniform(rows, dim, -0.5, 0.5, &mut drawn);
            for i in 0..rows {
                assert_eq!(bits(table.row(i)), bits(matrix.row(i)), "{rows} x {dim}, row {i}");
            }
            assert_eq!(
                filled, drawn,
                "{rows} x {dim}: the caller's stream must go on past the table"
            );
        }
    }

    #[test]
    fn row_zero_starts_on_the_boundary_the_table_size_picks() {
        for (rows, dim, align) in SHAPES {
            let table = EmbeddingTable::random(rows, dim, &mut Rng64::new(4));
            assert!(starts_on(&table, align), "{rows} x {dim} off its {align} B boundary");
        }
    }

    #[test]
    fn a_clone_compares_equal_and_is_laid_out_afresh() {
        for (rows, dim, align) in SHAPES {
            let table = EmbeddingTable::random(rows, dim, &mut Rng64::new(5));
            let clones: Vec<EmbeddingTable> = (0..4).map(|_| table.clone()).collect();
            for clone in &clones {
                assert_eq!(*clone, table, "{rows} x {dim}");
                assert!(starts_on(clone, align), "{rows} x {dim} clone off its {align} B boundary");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_row_past_the_end_panics_even_inside_the_padding() {
        EmbeddingTable::random(4, 2, &mut Rng64::new(6)).row(4);
    }
}
