/* Compiled kernels of the ADC hot paths.
 *
 * Every function here mirrors, bit for bit, a pure-numpy reference kept
 * with the tests (tests/numpy_backend.py): the bit-identity suites hold
 * the two to the same outputs, and before the library is trusted the
 * dispatch layer checks digests of its outputs on fixed inputs against
 * golden values from that reference (repro.native.selfcheck).
 *
 * Conventions shared by all kernels:
 *   - Evidence planes are transposed word planes: shape (n_words, E),
 *     row stride `stride` in *elements* (rows may be views of a wider
 *     arena buffer, so stride >= E; within a row elements are contiguous).
 *   - Bit b of a packed bitset lives at word b / 64, bit b % 64.
 *   - All pointers arrive as intptr_t so the Python side can pass cached
 *     integer addresses without per-call FFI casts.
 *
 * The search_* family implements the per-node steps of the ADCEnum explicit
 * stack (see repro.core.adc_enum): each fuses what used to be a dozen
 * small numpy dispatches into one pass over the node's arrays.  The enum_*
 * entry points at the end run the whole stack over those steps; their
 * reference is the search of the numpy workspace in the tests, which
 * composes the same steps in numpy.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define POPCOUNT(x) ((uint64_t)__builtin_popcountll(x))

/* ------------------------------------------------------------------ */
/* Overlap counts and criticality                                      */
/* ------------------------------------------------------------------ */

/* Fused |evidence ∩ mask| over a transposed (n_words, E) plane: one pass
 * per word row, accumulating uint32 counts. */
static void adc_intersection_counts(intptr_t ev_p, int64_t stride,
                                    int32_t n_words, int64_t n_cols,
                                    intptr_t mask_p, intptr_t out_p)
{
    const uint64_t *ev = (const uint64_t *)ev_p;
    const uint64_t *mask = (const uint64_t *)mask_p;
    uint32_t *out = (uint32_t *)out_p;
    memset(out, 0, (size_t)n_cols * sizeof(uint32_t));
    for (int32_t w = 0; w < n_words; w++) {
        uint64_t m = mask[w];
        if (!m)
            continue;
        const uint64_t *row = ev + (int64_t)w * stride;
        for (int64_t e = 0; e < n_cols; e++)
            out[e] += (uint32_t)POPCOUNT(row[e] & m);
    }
}

/* The criticality push of a hit-loop step as one fused pass:
 * strip `covers` from every member row (recording the removed bits), test
 * viability, install the new row at `depth`.  Returns 1 when every previous
 * member keeps a bit. */
static int32_t adc_crit_apply(intptr_t rows_p, int64_t stride,
                              int32_t n_words, int64_t depth,
                              intptr_t new_row_p, intptr_t covers_p,
                              intptr_t removed_p)
{
    uint64_t *rows = (uint64_t *)rows_p;
    const uint64_t *new_row = (const uint64_t *)new_row_p;
    const uint64_t *covers = (const uint64_t *)covers_p;
    uint64_t *removed = (uint64_t *)removed_p;
    int32_t viable = 1;
    for (int64_t d = 0; d < depth; d++) {
        uint64_t *row = rows + d * stride;
        uint64_t *rem = removed + d * (int64_t)n_words;
        uint64_t any = 0;
        for (int32_t w = 0; w < n_words; w++) {
            uint64_t r = row[w] & covers[w];
            rem[w] = r;
            row[w] ^= r;
            any |= row[w];
        }
        if (!any)
            viable = 0;
    }
    memcpy(rows + depth * stride, new_row, (size_t)n_words * sizeof(uint64_t));
    return viable;
}

/* The criticality pop: restore the removed bits of every member row. */
static void adc_crit_undo(intptr_t rows_p, int64_t stride, int32_t n_words,
                          int64_t depth, intptr_t removed_p)
{
    uint64_t *rows = (uint64_t *)rows_p;
    const uint64_t *removed = (const uint64_t *)removed_p;
    for (int64_t d = 0; d < depth; d++) {
        uint64_t *row = rows + d * stride;
        const uint64_t *rem = removed + d * (int64_t)n_words;
        for (int32_t w = 0; w < n_words; w++)
            row[w] |= rem[w];
    }
}

/* ------------------------------------------------------------------ */
/* Tile kernel                                                         */
/* ------------------------------------------------------------------ */

/* Pairs per accumulator block of the tile pass: a block of every word
 * plus a block of each group's comparison values stay in L1. */
#define TILE_BLOCK 256
/* Words in each of the tile pass's two stack scratch buffers (16 KiB each):
 * the pass allocates nothing on the heap for spaces of up to
 * 64 * TILE_SCRATCH predicates. */
#define TILE_SCRATCH 2048

/* Category selection without branches.  Each group contributes one of
 * three lookup words l0 (LESS), l1 (EQUAL), l2 (GREATER) per pair; with
 * all-ones/all-zero masks le and lt,
 *
 *     l2 ^ (le & (l2 ^ l1)) ^ (lt & (l1 ^ l0))
 *
 * is l2 when neither mask is set, l1 when only le is, and l0 when both
 * are (lt implies le).  x21 = l2 ^ l1 and x10 = l1 ^ l0 are per-group
 * constants, so the select is two ANDs and two XORs per word. */
#define MASK(cond) ((uint64_t)0 - (uint64_t)(cond))
#define SELECT3(le, lt, l2, x21, x10) ((l2) ^ ((le) & (x21)) ^ ((lt) & (x10)))

/* OR one pair group's category words into the block accumulators acc0
 * (word w) and, when acc1 is not NULL, acc1 (word w + 1) — two words per
 * pass, so each pair's comparison is made once for both.  l points at the
 * group's (3, nw) lookup; vary runs along the block and fixed is the
 * line's value.
 *   kind 1 (numeric): d = a - b, where a is vary[k] down a column and
 *     fixed along a row, exactly as in the reference; a NaN difference
 *     sets neither mask and stays GREATER.
 *   kind 2 (string): EQUAL on equal codes, else LESS: l0 ^ (eq & x10). */
static void tile_pair_group(uint64_t *restrict acc0, uint64_t *restrict acc1,
                            int64_t len, int32_t kind, int a_varies,
                            const double *restrict vary, double fixed,
                            const uint64_t *l, int64_t nw, int64_t w)
{
    const uint64_t a0 = l[w], a1 = l[nw + w], a2 = l[2 * nw + w];
    const uint64_t a21 = a2 ^ a1, a10 = a1 ^ a0;
    if (!acc1) {
        if (kind != 1) {
            for (int64_t k = 0; k < len; k++)
                acc0[k] |= a0 ^ (MASK(vary[k] == fixed) & a10);
            return;
        }
        for (int64_t k = 0; k < len; k++) {
            double d = a_varies ? vary[k] - fixed : fixed - vary[k];
            acc0[k] |= SELECT3(MASK(d <= 0.0), MASK(d < 0.0), a2, a21, a10);
        }
        return;
    }
    const uint64_t b0 = l[w + 1], b1 = l[nw + w + 1], b2 = l[2 * nw + w + 1];
    const uint64_t b21 = b2 ^ b1, b10 = b1 ^ b0;
    if (kind != 1) {
        for (int64_t k = 0; k < len; k++) {
            uint64_t eq = MASK(vary[k] == fixed);
            acc0[k] |= a0 ^ (eq & a10);
            acc1[k] |= b0 ^ (eq & b10);
        }
        return;
    }
    for (int64_t k = 0; k < len; k++) {
        double d = a_varies ? vary[k] - fixed : fixed - vary[k];
        uint64_t le = MASK(d <= 0.0), lt = MASK(d < 0.0);
        acc0[k] |= SELECT3(le, lt, a2, a21, a10);
        acc1[k] |= SELECT3(le, lt, b2, b21, b10);
    }
}

/* Word w of a single-tuple group's category c, a per-row value in [0, 3):
 * the numeric select with le = (c < 2) and lt = (c < 1), which picks
 * category (int)c as the reference's integer cast does. */
static inline uint64_t tile_single(double c, const uint64_t *l, int64_t nw,
                                   int64_t w)
{
    uint64_t l0 = l[w], l1 = l[nw + w], l2 = l[2 * nw + w];
    return SELECT3(MASK(c < 2.0), MASK(c < 1.0), l2, l2 ^ l1, l1 ^ l0);
}

/* One fused pass over a (i1-i0) x (j1-j0) tile of the ordered-pair matrix.
 *
 * Group g's order category for pair (i, j) is derived from two per-row
 * float64 vectors a and b (rows of the (G, n_rows) planes at stride
 * `row_stride`):
 *   kind 0 (single-tuple): category = (int)a[i], a[i] in [0, 3)  (b unused)
 *   kind 1 (numeric pair):  LESS if a[i] - b[j] < 0, EQUAL if == 0, else
 *                           GREATER — so a NaN difference is GREATER
 *   kind 2 (string pair):   a[i] == b[j] ? EQUAL : LESS
 * The pair's evidence words are the OR of lookup[g, category, :] over all
 * groups.
 *
 * The OR is order-free, so the pass is organised for the vector unit
 * rather than pair by pair:
 *   - the pass runs along the tile's longer side: "lines" are rows when
 *     the tile is at least as wide as tall, else columns, so an n x 1
 *     strip is one long line, like a 1 x n strip, not n lines of one pair;
 *   - lines are cut into blocks of up to TILE_BLOCK pairs, accumulated in
 *     one contiguous buffer per word (acc[w * block + k]), which the
 *     caller then consumes block by block;
 *   - the single-tuple groups depend on i only: they are folded into one
 *     base word per row (per block of rows when lines are columns), which
 *     seeds the accumulators;
 *   - each pair group then ORs its branch-free select over a contiguous
 *     run of its comparison values into the buffers, two words at a time.
 * A TilePass holds the pass's inputs and its two scratch buffers; one pass
 * serves any number of tiles over the same planes. */
typedef struct {
    const int32_t *kinds;
    const double *a, *b;
    const uint64_t *lookup;
    int64_t n_groups, row_stride, nw, block;
    uint64_t *acc, *base, *heap;
    /* The current tile. */
    int64_t i0, j0, width;
    int tall;
    int64_t n_lines, line_len;
} TilePass;

/* Bind the planes and the scratch: the caller's stack buffer of
 * 2 * TILE_SCRATCH words, or the heap for spaces too wide for it.
 * Returns 0, or -1 when the heap scratch cannot be allocated. */
static int tile_pass_init(TilePass *p, intptr_t kinds_p, int64_t n_groups,
                          intptr_t a_p, intptr_t b_p, int64_t row_stride,
                          intptr_t lookup_p, int64_t nw, uint64_t *stack)
{
    p->kinds = (const int32_t *)kinds_p;
    p->a = (const double *)a_p;
    p->b = (const double *)b_p;
    p->lookup = (const uint64_t *)lookup_p;
    p->n_groups = n_groups;
    p->row_stride = row_stride;
    p->nw = nw;
    p->heap = NULL;
    p->block = TILE_SCRATCH / nw < TILE_BLOCK ? TILE_SCRATCH / nw : TILE_BLOCK;
    uint64_t *scratch = stack;
    if (p->block == 0) {
        p->block = 1;
        scratch = p->heap = (uint64_t *)malloc(2 * (size_t)nw * sizeof(uint64_t));
        if (!scratch)
            return -1;
    }
    p->acc = scratch;
    p->base = scratch + nw * p->block;
    return 0;
}

static void tile_pass_tile(TilePass *p, int64_t i0, int64_t i1, int64_t j0,
                           int64_t j1)
{
    const int64_t height = i1 - i0, width = j1 - j0;
    p->i0 = i0;
    p->j0 = j0;
    p->width = width;
    p->tall = height > width;
    p->n_lines = p->tall ? width : height;
    p->line_len = p->tall ? height : width;
}

/* Lines are columns: fold the single-tuple words of rows k0 .. k0+len-1,
 * the same for every column, into `base` once per block. */
static void tile_pass_base(const TilePass *p, int64_t k0, int64_t len)
{
    const int64_t nw = p->nw, block = p->block;
    memset(p->base, 0, (size_t)(nw * block) * sizeof(uint64_t));
    for (int64_t g = 0; g < p->n_groups; g++) {
        if (p->kinds[g] != 0)
            continue;
        const double *ga = p->a + g * p->row_stride + p->i0 + k0;
        const uint64_t *l = p->lookup + g * 3 * nw;
        for (int64_t w = 0; w < nw; w++) {
            uint64_t *bw = p->base + w * block;
            const uint64_t l0 = l[w], l1 = l[nw + w], l2 = l[2 * nw + w];
            const uint64_t x21 = l2 ^ l1, x10 = l1 ^ l0;
            for (int64_t k = 0; k < len; k++)
                bw[k] |= SELECT3(MASK(ga[k] < 2.0), MASK(ga[k] < 1.0), l2, x21, x10);
        }
    }
}

/* Fill acc with the words of pairs k0 .. k0+len-1 along `line` (after
 * tile_pass_base for the block when lines are columns). */
static void tile_pass_line(const TilePass *p, int64_t k0, int64_t len, int64_t line)
{
    const int64_t nw = p->nw, block = p->block;
    const int tall = p->tall;
    for (int64_t w = 0; w < nw; w++) {
        uint64_t *aw = p->acc + w * block;
        if (tall) {
            memcpy(aw, p->base + w * block, (size_t)len * sizeof(uint64_t));
            continue;
        }
        uint64_t row_base = 0;
        for (int64_t g = 0; g < p->n_groups; g++)
            if (p->kinds[g] == 0)
                row_base |= tile_single(p->a[g * p->row_stride + p->i0 + line],
                                        p->lookup + g * 3 * nw, nw, w);
        for (int64_t k = 0; k < len; k++)
            aw[k] = row_base;
    }
    for (int64_t g = 0; g < p->n_groups; g++) {
        const int32_t kind = p->kinds[g];
        if (kind == 0)
            continue;
        const double *ga = p->a + g * p->row_stride;
        const double *gb = p->b + g * p->row_stride;
        const double *vary = tall ? ga + p->i0 + k0 : gb + p->j0 + k0;
        const double fixed = tall ? gb[p->j0 + line] : ga[p->i0 + line];
        const uint64_t *l = p->lookup + g * 3 * nw;
        for (int64_t w = 0; w < nw; w += 2)
            tile_pair_group(p->acc + w * block,
                            w + 1 < nw ? p->acc + (w + 1) * block : NULL,
                            len, kind, tall, vary, fixed, l, nw, w);
    }
}

/* The tile pass of one tile written out as the (n_pairs, n_words) plane
 * `out`, n_pairs = tile area, pair index p = (i - i0) * (j1 - j0) +
 * (j - j0), diagonal pairs included.  Every word of `out` is written, so
 * it need not be initialized.  Returns 0, or -1 when a space too wide for
 * the stack scratch cannot get its heap scratch. */
int32_t adc_tile_plane(intptr_t kinds_p, int64_t n_groups, intptr_t a_p,
                       intptr_t b_p, int64_t row_stride, intptr_t lookup_p,
                       int32_t n_words, int64_t i0, int64_t i1, int64_t j0,
                       int64_t j1, intptr_t out_p)
{
    uint64_t *out = (uint64_t *)out_p;
    const int64_t nw = n_words;
    if (i1 <= i0 || j1 <= j0 || nw <= 0)
        return 0;
    uint64_t stack[2 * TILE_SCRATCH];
    TilePass p;
    if (tile_pass_init(&p, kinds_p, n_groups, a_p, b_p, row_stride, lookup_p, nw, stack))
        return -1;
    tile_pass_tile(&p, i0, i1, j0, j1);
    const int64_t width = j1 - j0, block = p.block;
    /* Pair-index distance between neighbours along a line. */
    const int64_t step = p.tall ? width : 1;
    const uint64_t *acc = p.acc;
    for (int64_t k0 = 0; k0 < p.line_len; k0 += block) {
        const int64_t len = p.line_len - k0 < block ? p.line_len - k0 : block;
        if (p.tall)
            tile_pass_base(&p, k0, len);
        for (int64_t line = 0; line < p.n_lines; line++) {
            tile_pass_line(&p, k0, len, line);
            uint64_t *o = out + (p.tall ? k0 * width + line : line * width + k0) * nw;
            if (nw == 1) {
                for (int64_t k = 0; k < len; k++)
                    o[k * step] = acc[k];
            } else if (nw == 2) {
                const uint64_t *a0 = acc, *a1 = acc + block;
                for (int64_t k = 0; k < len; k++) {
                    o[2 * k * step] = a0[k];
                    o[2 * k * step + 1] = a1[k];
                }
            } else {
                for (int64_t k = 0; k < len; k++)
                    for (int64_t w = 0; w < nw; w++)
                        o[k * step * nw + w] = acc[w * block + k];
            }
        }
    }
    free(p.heap);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Row dedup and tile fold                                             */
/* ------------------------------------------------------------------ */

/* One open-addressing table (Fold, fold_insert) deduplicates word rows for
 * both entry points here: adc_unique_rows over a caller's plane, and
 * adc_fold_tiles over the pairs of a tile list.
 *
 * adc_fold_tiles runs the tile pass over a whole tile list and folds every
 * pair straight into one call-scoped dedup table: no pair-major plane is
 * written and nothing returns to Python between tiles.  Its reference is
 * NumpyKernels.fold_tiles (per-tile tile_plane, unique_rows and np.unique,
 * then one dedup over the tiles' distinct rows), and its outputs are that
 * reference's, byte for byte:
 *
 *   - the distinct words in the canonical lexicographic order (word 0
 *     primary) and each one's pair multiplicity;
 *   - with participation on, the tuple-participation histogram of the
 *     whole call: keys rank << 32 | tuple, ascending, where rank indexes
 *     the sorted words and a pair (i, j) of evidence e counts once for
 *     (e, i) and once for (e, j).
 *
 * The table is keyed on category codes, not on evidence words.  A pair's
 * words are the OR of one of three lookup rows per group, so the pair is
 * determined by which of its group's distinct rows each group picked.  The
 * code table (CodeTable) numbers each group's distinct rows 0 .. k-1 in a
 * field of ceil(log2 k) bits and packs the fields into kw words, no field
 * across a word boundary; a group whose three rows are equal gets no field
 * and its row is ORed in at decode.  The tile pass runs unchanged over the
 * (G, 3, kw) code lookup, so each pair costs kw words of pass, hash and
 * compare instead of nw.  A field holds at most 2 bits and never more
 * than its group has predicates, so kw <= nw for any predicate space (16
 * tax groups fit in one word against two evidence words).  The export
 * decodes each distinct code into its words; codes of groups that share
 * bits can decode to the same words, and those merge, counts and
 * participation added up.
 *
 * Participation is counted without hashing keys.  Each tile records its
 * pairs' provisional ids in a row-major id buffer; a pass over each row
 * and each column of that buffer counts the line's ids in per-id counters
 * (reset through a touched list) and appends the line's (id, count)
 * entries as one segment tagged with the line's tuple.  At the end the
 * segments are grouped by tuple with a counting sort, each tuple's
 * segments are summed per rank in the same counters, and every (rank,
 * tuple, count) lands at its rank's next free slot: tuples are visited in
 * ascending order, so each rank's run comes out sorted. */

/* Initial slots of the dedup's open-addressing table, 2^FOLD_TABLE_BITS
 * (it keeps its load at most 1/4 — short probe chains — doubling past
 * that), and rows of the fold's distinct-word buffer. */
#define FOLD_TABLE_BITS 12
#define FOLD_TABLE_SLOTS (1 << FOLD_TABLE_BITS)
#define FOLD_ROWS 1024
/* Id-buffer mark of a diagonal pair, which the fold skips. */
#define FOLD_DIAGONAL UINT32_MAX

/* The caller's allocator of the fold's output: the address of a fresh
 * buffer of `nbytes` bytes aligned for uint64, or 0. */
typedef intptr_t (*FoldAlloc)(int64_t nbytes);

typedef struct {
    int64_t nw;
    /* Distinct words in first-seen order (provisional ids), their
     * multiplicities, and the table over them (slot = id + 1, 0 = empty). */
    uint64_t *uniq;
    int64_t *counts;
    int64_t n_unique, cap;
    uint32_t *table;
    uint64_t mask;
    int shift;                    /* 64 - log2(table slots) */
    /* Participation: the current tile's id buffer, per-id line counters
     * (0 = untouched) for `part_cap` ids with their touched list (one slot
     * more), and the segments of (id << 32 | count) entries, one per tuple
     * line. */
    uint32_t *ids;
    uint32_t *line_counts, *touched;
    int64_t part_cap;
    uint64_t *entries;
    int64_t n_entries, entries_cap;
    int64_t *segs;                /* (tuple, first entry) per segment */
    int64_t n_segs, segs_cap;     /* segs_cap counts int64s */
} Fold;

static void fold_free(Fold *f)
{
    free(f->uniq);
    free(f->counts);
    free(f->table);
    free(f->ids);
    free(f->line_counts);
    free(f->touched);
    free(f->entries);
    free(f->segs);
}

/* Grow *buffer, of *cap elements of `size` bytes, to hold `need` of them,
 * doubling; 0, or -1 when memory runs out (the old buffer stays valid). */
static int fold_reserve(void **buffer, int64_t *cap, int64_t need, size_t size)
{
    if (need <= *cap)
        return 0;
    int64_t grown = *cap > 0 ? 2 * *cap : 64;
    while (grown < need)
        grown *= 2;
    void *moved = realloc(*buffer, (size_t)grown * size);
    if (!moved)
        return -1;
    *buffer = moved;
    *cap = grown;
    return 0;
}

static int fold_grow_rows(Fold *f)
{
    const int64_t cap = 2 * f->cap;
    uint64_t *uniq = (uint64_t *)realloc(f->uniq, (size_t)(cap * f->nw) * sizeof(uint64_t));
    if (!uniq)
        return -1;
    f->uniq = uniq;
    int64_t *counts = (int64_t *)realloc(f->counts, (size_t)cap * sizeof(int64_t));
    if (!counts)
        return -1;
    f->counts = counts;
    f->cap = cap;
    return 0;
}

/* The dedup's row hash, whose *top* bits index the table: they depend on
 * every bit of the row (the multiply carries each bit upward, and the
 * shift folds the high half of a word into the low half first).  Two
 * multiplies for a row of two words, which matters at one lookup per pair. */
static inline uint64_t fold_hash(const uint64_t *row, int64_t nw)
{
    uint64_t h = nw > 0 ? row[0] : 0;
    for (int64_t k = 1; k < nw; k++)
        h = (h * 0x9E3779B97F4A7C15ULL) ^ row[k];
    h ^= h >> 32;
    return h * 0xBF58476D1CE4E5B9ULL;
}

/* An empty table of the initial size; 0, or -1 when memory runs out. */
static int fold_table_init(Fold *f)
{
    f->mask = FOLD_TABLE_SLOTS - 1;
    f->shift = 64 - FOLD_TABLE_BITS;
    f->table = (uint32_t *)calloc(FOLD_TABLE_SLOTS, sizeof(uint32_t));
    return f->table ? 0 : -1;
}

/* Re-insert every distinct row into an empty table of f->mask + 1 slots. */
static void fold_rehash(Fold *f)
{
    memset(f->table, 0, (size_t)(f->mask + 1) * sizeof(uint32_t));
    for (int64_t u = 0; u < f->n_unique; u++) {
        uint64_t slot = fold_hash(f->uniq + u * f->nw, f->nw) >> f->shift;
        while (f->table[slot])
            slot = (slot + 1) & f->mask;
        f->table[slot] = (uint32_t)(u + 1);
    }
}

/* The provisional id of `row` (f->nw words, passed as `nw` so that a
 * caller can make it a constant): counted once more when seen, else
 * inserted with count 1.  -1 when memory runs out.  Inlined into both
 * callers: left as a call, it made adc_unique_rows ~15% slower. */
static inline __attribute__((always_inline)) int64_t fold_insert(Fold *f, const uint64_t *row,
                                                                 const int64_t nw)
{
    int64_t k;
    uint64_t slot = fold_hash(row, nw) >> f->shift;
    for (;;) {
        const int64_t u = (int64_t)f->table[slot] - 1;
        if (u < 0)
            break;
        const uint64_t *candidate = f->uniq + u * nw;
        for (k = 0; k < nw && candidate[k] == row[k]; k++)
            ;
        if (k == nw) {
            f->counts[u]++;
            return u;
        }
        slot = (slot + 1) & f->mask;
    }
    const int64_t u = f->n_unique;
    if (u == f->cap && fold_grow_rows(f))
        return -1;
    memcpy(f->uniq + u * nw, row, (size_t)nw * sizeof(uint64_t));
    f->counts[u] = 1;
    f->table[slot] = (uint32_t)(u + 1);
    f->n_unique = u + 1;
    if (4 * (uint64_t)f->n_unique > f->mask + 1) {
        const uint64_t slots = 2 * (f->mask + 1);
        uint32_t *grown = (uint32_t *)malloc(slots * sizeof(uint32_t));
        if (!grown)
            return -1;
        free(f->table);
        f->table = grown;
        f->mask = slots - 1;
        f->shift--;
        fold_rehash(f);
    }
    return u;
}

/* Hash-deduplicate the rows of a contiguous (n, w) uint64 plane.
 *
 * First-seen unique rows are written to `uniq` (capacity n rows, so the
 * table never grows it); `inverse[r]` is row r's unique index and
 * `counts[u]` its multiplicity (every returned count is written here, so
 * `counts` need not be initialized).  Returns the number of unique rows,
 * or -1 when the table cannot grow.  Uniques come out in first-seen order
 * — the Python wrapper re-sorts the (small) unique set into the canonical
 * lexicographic order and remaps inverse/counts, so the hash order never
 * leaks out.  Table slots hold uint32 ids, so a plane may have at most
 * UINT32_MAX - 1 rows (the wrapper checks). */
int64_t adc_unique_rows(intptr_t words_p, int64_t n, int64_t w,
                        intptr_t uniq_p, intptr_t inverse_p, intptr_t counts_p)
{
    const uint64_t *words = (const uint64_t *)words_p;
    int64_t *inverse = (int64_t *)inverse_p;
    Fold f;
    memset(&f, 0, sizeof(f));
    f.nw = w;
    f.uniq = (uint64_t *)uniq_p;
    f.counts = (int64_t *)counts_p;
    f.cap = n;
    int64_t n_unique = -1;
    if (fold_table_init(&f))
        return -1;
    for (int64_t r = 0; r < n; r++)
        if ((inverse[r] = fold_insert(&f, words + r * w, w)) < 0)
            goto done;
    n_unique = f.n_unique;
done:
    free(f.table);
    return n_unique;
}

/* Count one line of the id buffer (`len` ids, `step` apart) for `tuple`
 * and append its segment.  0, or -1 when memory runs out. */
static int fold_line(Fold *f, const uint32_t *ids, int64_t step, int64_t len,
                     int64_t tuple)
{
    uint32_t *line_counts = f->line_counts, *touched = f->touched;
    int64_t n_touched = 0;
    for (int64_t k = 0; k < len; k++) {
        const uint32_t id = ids[k * step];
        if (id == FOLD_DIAGONAL)
            continue;
        /* Branch-free push: the slot past the list is always writable. */
        touched[n_touched] = id;
        n_touched += line_counts[id]++ == 0;
    }
    if (!n_touched)
        return 0;
    if (fold_reserve((void **)&f->entries, &f->entries_cap, f->n_entries + n_touched,
                     sizeof(uint64_t)))
        return -1;
    if (fold_reserve((void **)&f->segs, &f->segs_cap, 2 * (f->n_segs + 1), sizeof(int64_t)))
        return -1;
    f->segs[2 * f->n_segs] = tuple;
    f->segs[2 * f->n_segs + 1] = f->n_entries;
    f->n_segs++;
    uint64_t *entry = f->entries + f->n_entries;
    for (int64_t t = 0; t < n_touched; t++) {
        const uint32_t id = touched[t];
        entry[t] = (uint64_t)id << 32 | line_counts[id];
        line_counts[id] = 0;
    }
    f->n_entries += n_touched;
    return 0;
}

/* Participation of one folded tile: every row and every column of its
 * (height, width) id buffer.  0, or -1 when memory runs out. */
static int fold_tile_lines(Fold *f, int64_t i0, int64_t height, int64_t j0,
                           int64_t width)
{
    if (f->part_cap < f->n_unique) {
        const int64_t cap = f->cap;
        uint32_t *line_counts = (uint32_t *)realloc(f->line_counts, (size_t)cap * sizeof(uint32_t));
        if (!line_counts)
            return -1;
        f->line_counts = line_counts;
        uint32_t *touched = (uint32_t *)realloc(f->touched, (size_t)(cap + 1) * sizeof(uint32_t));
        if (!touched)
            return -1;
        f->touched = touched;
        memset(line_counts + f->part_cap, 0, (size_t)(cap - f->part_cap) * sizeof(uint32_t));
        f->part_cap = cap;
    }
    for (int64_t r = 0; r < height; r++)
        if (fold_line(f, f->ids + r * width, 1, width, i0 + r))
            return -1;
    for (int64_t c = 0; c < width; c++)
        if (fold_line(f, f->ids + c, width, height, j0 + c))
            return -1;
    return 0;
}

/* Whether row x sorts before row y (word 0 primary, unsigned). */
static inline int rows_less(const uint64_t *x, const uint64_t *y, int64_t nw)
{
    for (int64_t k = 0; k < nw; k++)
        if (x[k] != y[k])
            return x[k] < y[k];
    return 0;
}

/* Bottom-up merge sort of the row indices `order` (n of them, `scratch`
 * the same size) into canonical row order.  Returns the sorted buffer,
 * which is either `order` or `scratch`. */
static int64_t *sort_rows(int64_t *order, int64_t *scratch, int64_t n,
                          const uint64_t *rows, int64_t nw)
{
    int64_t *from = order, *to = scratch;
    for (int64_t width = 1; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            const int64_t mid = lo + width < n ? lo + width : n;
            const int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t x = lo, y = mid, out = lo;
            while (x < mid && y < hi)
                to[out++] = rows_less(rows + from[y] * nw, rows + from[x] * nw, nw)
                                ? from[y++] : from[x++];
            while (x < mid)
                to[out++] = from[x++];
            while (y < hi)
                to[out++] = from[y++];
        }
        int64_t *swap = from;
        from = to;
        to = swap;
    }
    return from;
}

/* One field of the code table: where its group's code sits, and the lookup
 * row of each code value (only values below the group's k occur). */
typedef struct {
    int64_t word;
    int shift;
    uint64_t mask;
    const uint64_t *rows[3];
} CodeField;

/* The fold's key space (see the comment at the top of this section): the
 * (G, 3, kw) code lookup the tile pass reads, and what decodes a code row
 * back into its nw evidence words. */
typedef struct {
    int64_t nw, kw, n_fields;
    uint64_t *codes;
    uint64_t *constant;           /* OR of the rows of groups without a field */
    CodeField *fields;
} CodeTable;

static void code_table_free(CodeTable *t)
{
    free(t->codes);
    free(t->constant);
    free(t->fields);
}

/* Derive the code table of a (G, 3, nw) word lookup.  0, or -1 when memory
 * runs out (code_table_free releases a partial table either way). */
static int code_table_init(CodeTable *t, const uint64_t *lookup, int64_t n_groups, int64_t nw)
{
    const size_t slots = (size_t)(n_groups > 0 ? n_groups : 1);
    memset(t, 0, sizeof(*t));
    t->nw = nw;
    t->constant = (uint64_t *)calloc((size_t)nw, sizeof(uint64_t));
    t->fields = (CodeField *)malloc(slots * sizeof(CodeField));
    /* Per group: the code of each category, then the field width. */
    uint8_t *values = (uint8_t *)malloc(4 * slots);
    int status = -1;
    if (!t->constant || !t->fields || !values)
        goto done;
    uint8_t *widths = values + 3 * slots;
    int64_t bits = 0;
    for (int64_t g = 0; g < n_groups; g++) {
        const uint64_t *l = lookup + g * 3 * nw;
        uint8_t k = 0;
        for (int c = 0; c < 3; c++) {
            uint8_t v = k;
            for (int d = 0; d < c; d++)
                if (!memcmp(l + c * nw, l + d * nw, (size_t)nw * sizeof(uint64_t))) {
                    v = values[3 * g + d];
                    break;
                }
            values[3 * g + c] = v;
            k += v == k;
        }
        widths[g] = k == 3 ? 2 : k - 1;
        bits += widths[g];
        if (k == 1)
            for (int64_t w = 0; w < nw; w++)
                t->constant[w] |= l[w];
    }
    /* Two-bit fields first, at even offsets, then one-bit fields: no field
     * crosses a word, and the fields fill exactly ceil(bits / 64) words. */
    t->kw = bits > 64 ? (bits + 63) / 64 : 1;
    t->codes = (uint64_t *)calloc(slots * 3 * (size_t)t->kw, sizeof(uint64_t));
    if (!t->codes)
        goto done;
    int64_t offset = 0;
    for (uint8_t width = 2; width >= 1; width--)
        for (int64_t g = 0; g < n_groups; g++) {
            if (widths[g] != width)
                continue;
            CodeField *field = t->fields + t->n_fields++;
            field->word = offset / 64;
            field->shift = (int)(offset % 64);
            field->mask = ((uint64_t)1 << width) - 1;
            for (int c = 0; c < 3; c++) {
                const uint8_t v = values[3 * g + c];
                field->rows[v] = lookup + (g * 3 + c) * nw;
                t->codes[(g * 3 + c) * t->kw + field->word] = (uint64_t)v << field->shift;
            }
            offset += width;
        }
    status = 0;
done:
    free(values);
    return status;
}

/* The nw evidence words of one code row. */
static void code_decode(const CodeTable *t, const uint64_t *code, uint64_t *out)
{
    const int64_t nw = t->nw;
    memcpy(out, t->constant, (size_t)nw * sizeof(uint64_t));
    for (int64_t f = 0; f < t->n_fields; f++) {
        const CodeField *field = t->fields + f;
        const uint64_t *row = field->rows[(code[field->word] >> field->shift) & field->mask];
        for (int64_t w = 0; w < nw; w++)
            out[w] |= row[w];
    }
}

/* Sum each tuple's segments (`by_tuple`, grouped by tuple ascending over
 * `n_tuples` bins starting at `first`) per rank of their ids and stage
 * every (rank << 32 | tuple, count) in tuple order into *stage (capacity
 * *stage_cap int64s, grown as needed), counting each rank's keys in
 * `sizes`.  `sums` (per rank) must be zero and is left zero.  Returns the
 * number of keys, or -1 when memory runs out. */
static int64_t fold_keys(const Fold *f, const int64_t *by_tuple, const int64_t *bins,
                         int64_t n_tuples, int64_t first, const int64_t *rank,
                         int64_t *sums, int64_t *sizes, int64_t **stage,
                         int64_t *stage_cap)
{
    uint32_t *touched = f->touched;
    int64_t n_keys = 0;
    for (int64_t t = 0; t < n_tuples; t++) {
        int64_t n_touched = 0;
        for (int64_t s = bins[t]; s < bins[t + 1]; s++) {
            const int64_t seg = by_tuple[s];
            const int64_t stop = seg + 1 < f->n_segs ? f->segs[2 * seg + 3] : f->n_entries;
            for (int64_t e = f->segs[2 * seg + 1]; e < stop; e++) {
                const int64_t r = rank[f->entries[e] >> 32];
                touched[n_touched] = (uint32_t)r;
                n_touched += sums[r] == 0;
                sums[r] += (int64_t)(f->entries[e] & 0xFFFFFFFFu);
            }
        }
        if (fold_reserve((void **)stage, stage_cap, 2 * (n_keys + n_touched), sizeof(int64_t)))
            return -1;
        int64_t *staged = *stage + 2 * n_keys;
        for (int64_t k = 0; k < n_touched; k++) {
            const int64_t r = touched[k];
            sizes[r]++;
            staged[2 * k] = r << 32 | (first + t);
            staged[2 * k + 1] = sums[r];
            sums[r] = 0;
        }
        n_keys += n_touched;
    }
    return n_keys;
}

/* Decode the fold's distinct codes, sort and merge their words, aggregate
 * the participation and write both into one buffer from `alloc`: words
 * (E, nw) | counts (E) | keys (D) | key counts (D), all 8-byte.  sizes =
 * (E, D).  0, or -1 when memory runs out. */
static int fold_export(Fold *f, const CodeTable *t, int participation, FoldAlloc alloc,
                       int64_t *sizes)
{
    const int64_t n = f->n_unique, nw = t->nw;
    uint64_t *words = (uint64_t *)malloc((size_t)(n * nw) * sizeof(uint64_t));
    int64_t *order = (int64_t *)malloc((size_t)(2 * n + 1) * sizeof(int64_t));
    int64_t *rank = (int64_t *)malloc((size_t)(n + 1) * sizeof(int64_t));
    int64_t *sums = NULL, *next = NULL, *bins = NULL, *by_tuple = NULL, *stage = NULL;
    int64_t stage_cap = 0;
    int status = -1;
    if (!words || !order || !rank)
        goto done;
    for (int64_t u = 0; u < n; u++) {
        code_decode(t, f->uniq + u * f->nw, words + u * nw);
        order[u] = u;
    }
    const int64_t *sorted = sort_rows(order, order + n, n, words, nw);
    /* Codes that decode to equal words share a rank. */
    int64_t n_distinct = 0;
    for (int64_t r = 0; r < n; r++) {
        n_distinct += r == 0 || memcmp(words + sorted[r] * nw, words + sorted[r - 1] * nw,
                                       (size_t)nw * sizeof(uint64_t));
        rank[sorted[r]] = n_distinct - 1;
    }

    int64_t n_keys = 0, first = 0, n_tuples = 0;
    if (participation && f->n_segs) {
        /* Group the segments by tuple: a counting sort over the tuple range. */
        int64_t last = first = f->segs[0];
        for (int64_t s = 1; s < f->n_segs; s++) {
            first = f->segs[2 * s] < first ? f->segs[2 * s] : first;
            last = f->segs[2 * s] > last ? f->segs[2 * s] : last;
        }
        n_tuples = last - first + 1;
        bins = (int64_t *)calloc((size_t)n_tuples + 1, sizeof(int64_t));
        by_tuple = (int64_t *)malloc((size_t)f->n_segs * sizeof(int64_t));
        sums = (int64_t *)calloc((size_t)n_distinct, sizeof(int64_t));
        next = (int64_t *)calloc((size_t)n_distinct + 1, sizeof(int64_t));
        if (!bins || !by_tuple || !sums || !next)
            goto done;
        for (int64_t s = 0; s < f->n_segs; s++)
            bins[f->segs[2 * s] - first + 1]++;
        for (int64_t t = 0; t < n_tuples; t++)
            bins[t + 1] += bins[t];
        for (int64_t s = 0; s < f->n_segs; s++)
            by_tuple[bins[f->segs[2 * s] - first]++] = s;
        for (int64_t t = n_tuples; t > 0; t--)
            bins[t] = bins[t - 1];
        bins[0] = 0;
        n_keys = fold_keys(f, by_tuple, bins, n_tuples, first, rank, sums, next,
                           &stage, &stage_cap);
        if (n_keys < 0)
            goto done;
        int64_t offset = 0;
        for (int64_t r = 0; r < n_distinct; r++) {
            const int64_t size = next[r];
            next[r] = offset;
            offset += size;
        }
    }
    uint64_t *out = (uint64_t *)alloc((n_distinct * (nw + 1) + 2 * n_keys) *
                                      (int64_t)sizeof(uint64_t));
    if (!out)
        goto done;
    int64_t *counts = (int64_t *)(out + n_distinct * nw);
    memset(counts, 0, (size_t)n_distinct * sizeof(int64_t));
    for (int64_t r = 0; r < n; r++) {
        const int64_t e = rank[sorted[r]];
        memcpy(out + e * nw, words + sorted[r] * nw, (size_t)nw * sizeof(uint64_t));
        counts[e] += f->counts[sorted[r]];
    }
    /* The staged keys are in tuple order: placing each at its rank's next
     * slot leaves every rank's run sorted by tuple. */
    int64_t *keys = counts + n_distinct, *key_counts = keys + n_keys;
    for (int64_t k = 0; k < n_keys; k++) {
        const int64_t slot = next[stage[2 * k] >> 32]++;
        keys[slot] = stage[2 * k];
        key_counts[slot] = stage[2 * k + 1];
    }
    sizes[0] = n_distinct;
    sizes[1] = n_keys;
    status = 0;
done:
    free(words);
    free(order);
    free(rank);
    free(sums);
    free(next);
    free(bins);
    free(by_tuple);
    free(stage);
    return status;
}

/* Fold the n_tiles tiles of `bounds` ((n_tiles, 4) int64 rows i0, i1, j0,
 * j1) over the planes of adc_tile_plane.  Diagonal pairs are skipped;
 * `participation` != 0 also aggregates the tuple-participation histogram.
 * The output goes to one buffer from `alloc_p` (see fold_export), which
 * is not called when no pair was folded; sizes_p receives (E, D).  Pair
 * ids are uint32, so the tiles may hold at most UINT32_MAX - 1 pairs (the
 * wrapper checks).  Returns 0, or -1 when memory runs out; every buffer
 * of the call is freed on return either way. */
int32_t adc_fold_tiles(intptr_t kinds_p, int64_t n_groups, intptr_t a_p,
                       intptr_t b_p, int64_t row_stride, intptr_t lookup_p,
                       int32_t n_words, intptr_t bounds_p, int64_t n_tiles,
                       int32_t participation, intptr_t alloc_p, intptr_t sizes_p)
{
    const int64_t *bounds = (const int64_t *)bounds_p;
    int64_t *sizes = (int64_t *)sizes_p;
    sizes[0] = sizes[1] = 0;
    if (n_words <= 0)
        return 0;
    uint64_t stack[2 * TILE_SCRATCH];
    TilePass p;
    Fold f;
    CodeTable code;
    memset(&p, 0, sizeof(p));
    memset(&f, 0, sizeof(f));
    uint64_t *row = NULL;
    int32_t status = -1;
    if (code_table_init(&code, (const uint64_t *)lookup_p, n_groups, n_words))
        goto done;
    const int64_t kw = code.kw;
    if (tile_pass_init(&p, kinds_p, n_groups, a_p, b_p, row_stride, (intptr_t)code.codes,
                       kw, stack))
        goto done;
    f.nw = kw;
    f.cap = FOLD_ROWS;
    f.uniq = (uint64_t *)malloc((size_t)(FOLD_ROWS * kw) * sizeof(uint64_t));
    f.counts = (int64_t *)malloc(FOLD_ROWS * sizeof(int64_t));
    row = (uint64_t *)malloc((size_t)kw * sizeof(uint64_t));
    if (fold_table_init(&f) || !f.uniq || !f.counts || !row)
        goto done;
    if (participation) {
        int64_t area = 0;
        for (int64_t t = 0; t < n_tiles; t++) {
            const int64_t *tb = bounds + 4 * t;
            const int64_t a = (tb[1] - tb[0]) * (tb[3] - tb[2]);
            area = tb[1] > tb[0] && tb[3] > tb[2] && a > area ? a : area;
        }
        f.ids = (uint32_t *)malloc((size_t)(area > 0 ? area : 1) * sizeof(uint32_t));
        if (!f.ids)
            goto done;
    }

    const int64_t block = p.block;
    for (int64_t t = 0; t < n_tiles; t++) {
        const int64_t i0 = bounds[4 * t], i1 = bounds[4 * t + 1];
        const int64_t j0 = bounds[4 * t + 2], j1 = bounds[4 * t + 3];
        if (i1 <= i0 || j1 <= j0)
            continue;
        tile_pass_tile(&p, i0, i1, j0, j1);
        const int64_t width = j1 - j0;
        for (int64_t k0 = 0; k0 < p.line_len; k0 += block) {
            const int64_t len = p.line_len - k0 < block ? p.line_len - k0 : block;
            if (p.tall)
                tile_pass_base(&p, k0, len);
            for (int64_t line = 0; line < p.n_lines; line++) {
                tile_pass_line(&p, k0, len, line);
                /* The line's diagonal pair, at offset `skip` of the block. */
                const int64_t skip = p.tall ? j0 + line - i0 - k0 : i0 + line - j0 - k0;
                uint32_t *ids = f.ids ? f.ids + (p.tall ? k0 * width + line : line * width + k0)
                                      : NULL;
                const int64_t step = p.tall ? width : 1;
                for (int64_t k = 0; k < len; k++) {
                    if (k == skip) {
                        if (ids)
                            ids[k * step] = FOLD_DIAGONAL;
                        continue;
                    }
                    int64_t id;
                    if (kw == 1) {
                        id = fold_insert(&f, p.acc + k, 1);
                    } else {
                        for (int64_t w = 0; w < kw; w++)
                            row[w] = p.acc[w * block + k];
                        id = fold_insert(&f, row, kw);
                    }
                    if (id < 0)
                        goto done;
                    if (ids)
                        ids[k * step] = (uint32_t)id;
                }
            }
        }
        if (participation && fold_tile_lines(&f, i0, i1 - i0, j0, width))
            goto done;
    }
    status = f.n_unique
                 ? (int32_t)fold_export(&f, &code, participation, (FoldAlloc)alloc_p, sizes)
                 : 0;
done:
    free(row);
    free(p.heap);
    fold_free(&f);
    code_table_free(&code);
    return status;
}

/* ------------------------------------------------------------------ */
/* ADCEnum search-node kernels                                         */
/* ------------------------------------------------------------------ */

/* Node expansion: pick the chosen evidence, derive the skip branch's
 * candidate planes and the reduced overlap counts, and total the pairs of
 * the evidences the skip branch would doom.
 *
 * Inputs are the node's threaded state: ev (n_words, E) plane (row stride
 * `stride`), cin (uint32 candidate-overlap counts), pairs (int64 pair
 * multiplicities), cand (n_cand_words input candidate plane).  Outputs:
 * to_try = cand ∩ chosen, cand_loop = cand \ chosen, red = cin - |ev ∩
 * to_try| per evidence.  out_scalars = {chosen, n_selectable, lost_pairs,
 * |to_try|} — the last so the caller can size the hit-loop blocks without
 * another popcount pass.
 *
 * Selection 0 = max overlap, 1 = min overlap (both first-index tie-break,
 * zero-count evidences never selectable), 2 = pseudo-random
 * (selectable[call_index % n_selectable]).
 */
static void adc_search_expand(intptr_t ev_p, int64_t stride, int32_t n_words,
                              int64_t n_cols, intptr_t cin_p, intptr_t pairs_p,
                              intptr_t cand_p, int32_t n_cand_words,
                              int32_t selection, int64_t call_index,
                              intptr_t to_try_p, intptr_t cand_loop_p,
                              intptr_t red_p, intptr_t out_scalars_p)
{
    const uint64_t *ev = (const uint64_t *)ev_p;
    const uint32_t *cin = (const uint32_t *)cin_p;
    const int64_t *pairs = (const int64_t *)pairs_p;
    const uint64_t *cand = (const uint64_t *)cand_p;
    uint64_t *to_try = (uint64_t *)to_try_p;
    uint64_t *cand_loop = (uint64_t *)cand_loop_p;
    uint32_t *red = (uint32_t *)red_p;
    int64_t *out = (int64_t *)out_scalars_p;

    int64_t n_sel = 0;
    int64_t chosen = -1;
    if (selection == 2) {
        for (int64_t e = 0; e < n_cols; e++)
            if (cin[e])
                n_sel++;
        if (n_sel) {
            int64_t target = call_index % n_sel;
            for (int64_t e = 0; e < n_cols; e++)
                if (cin[e] && target-- == 0) {
                    chosen = e;
                    break;
                }
        }
    } else {
        uint32_t best = 0;
        for (int64_t e = 0; e < n_cols; e++) {
            uint32_t c = cin[e];
            if (!c)
                continue;
            n_sel++;
            if (chosen < 0 || (selection == 0 ? c > best : c < best)) {
                best = c;
                chosen = e;
            }
        }
    }
    out[0] = chosen;
    out[1] = n_sel;
    out[2] = 0;
    out[3] = 0;
    if (chosen < 0)
        return;

    int64_t n_to_try = 0;
    for (int32_t w = 0; w < n_cand_words; w++) {
        uint64_t chosen_word = ev[(int64_t)w * stride + chosen];
        to_try[w] = cand[w] & chosen_word;
        cand_loop[w] = cand[w] & ~chosen_word;
        n_to_try += (int64_t)POPCOUNT(to_try[w]);
    }
    out[3] = n_to_try;
    memcpy(red, cin, (size_t)n_cols * sizeof(uint32_t));
    for (int32_t w = 0; w < n_words; w++) {
        uint64_t m = to_try[w];
        if (!m)
            continue;
        const uint64_t *row = ev + (int64_t)w * stride;
        for (int64_t e = 0; e < n_cols; e++)
            red[e] -= (uint32_t)POPCOUNT(row[e] & m);
    }
    int64_t lost = 0;
    for (int64_t e = 0; e < n_cols; e++)
        if (!red[e])
            lost += pairs[e];
    out[2] = lost;
}

/* Skip-branch child state.  With compact != 0 only evidences whose reduced
 * overlap is still positive survive (dead-evidence compaction); otherwise
 * the child is a verbatim copy.  uncov pointers may be 0 (a search
 * without track_uncov threads no ids).  Returns the child's evidence count. */
static int64_t adc_search_skip_child(intptr_t ev_p, int64_t stride, int32_t n_words,
                                     int64_t n_cols, intptr_t red_p, intptr_t pairs_p,
                                     intptr_t uncov_p, int32_t compact,
                                     intptr_t child_ev_p, int64_t child_stride,
                                     intptr_t child_cin_p, intptr_t child_pairs_p,
                                     intptr_t child_uncov_p)
{
    const uint64_t *ev = (const uint64_t *)ev_p;
    const uint32_t *red = (const uint32_t *)red_p;
    const int64_t *pairs = (const int64_t *)pairs_p;
    const int64_t *uncov = (const int64_t *)uncov_p;
    uint64_t *child_ev = (uint64_t *)child_ev_p;
    uint32_t *child_cin = (uint32_t *)child_cin_p;
    int64_t *child_pairs = (int64_t *)child_pairs_p;
    int64_t *child_uncov = (int64_t *)child_uncov_p;

    if (!compact) {
        for (int32_t w = 0; w < n_words; w++)
            memcpy(child_ev + (int64_t)w * child_stride,
                   ev + (int64_t)w * stride, (size_t)n_cols * sizeof(uint64_t));
        memcpy(child_cin, red, (size_t)n_cols * sizeof(uint32_t));
        memcpy(child_pairs, pairs, (size_t)n_cols * sizeof(int64_t));
        if (uncov)
            memcpy(child_uncov, uncov, (size_t)n_cols * sizeof(int64_t));
        return n_cols;
    }
    int64_t m = 0;
    for (int64_t e = 0; e < n_cols; e++) {
        if (!red[e])
            continue;
        for (int32_t w = 0; w < n_words; w++)
            child_ev[(int64_t)w * child_stride + m] =
                ev[(int64_t)w * stride + e];
        child_cin[m] = red[e];
        child_pairs[m] = pairs[e];
        if (uncov)
            child_uncov[m] = uncov[e];
        m++;
    }
    return m;
}

/* Hit-loop preamble: extract the predicate indices of to_try in ascending
 * order and gather, per element, its evidence-membership row (covers), the
 * freshly-critical bits (covers ∩ uncov_bits) and the child's uncovered
 * bitset (uncov_bits \ covers).  Blocks are (k, n_ev_words) row-major.
 * Returns k, the number of elements. */
static int64_t adc_search_hit_prepare(intptr_t to_try_p, int32_t n_cand_words,
                                      intptr_t contains_p, int64_t contains_stride,
                                      intptr_t uncov_bits_p, int32_t n_ev_words,
                                      intptr_t elements_p, intptr_t covers_block_p,
                                      intptr_t crit_block_p, intptr_t child_bits_p)
{
    const uint64_t *to_try = (const uint64_t *)to_try_p;
    const uint64_t *contains = (const uint64_t *)contains_p;
    const uint64_t *uncov_bits = (const uint64_t *)uncov_bits_p;
    int32_t *elements = (int32_t *)elements_p;
    uint64_t *covers_block = (uint64_t *)covers_block_p;
    uint64_t *crit_block = (uint64_t *)crit_block_p;
    uint64_t *child_bits = (uint64_t *)child_bits_p;

    int64_t k = 0;
    for (int32_t w = 0; w < n_cand_words; w++) {
        uint64_t word = to_try[w];
        while (word) {
            uint64_t low = word & (~word + 1);
            int32_t element = w * 64 + (int32_t)POPCOUNT(low - 1);
            word ^= low;
            const uint64_t *row = contains + (int64_t)element * contains_stride;
            uint64_t *cov = covers_block + k * (int64_t)n_ev_words;
            uint64_t *crt = crit_block + k * (int64_t)n_ev_words;
            uint64_t *chb = child_bits + k * (int64_t)n_ev_words;
            for (int32_t v = 0; v < n_ev_words; v++) {
                uint64_t c = row[v];
                cov[v] = c;
                crt[v] = c & uncov_bits[v];
                chb[v] = uncov_bits[v] & ~c;
            }
            elements[k++] = element;
        }
    }
    return k;
}

/* One hit-loop step for element `position`:
 *
 *   1. criticality apply (strip covers from the member rows, recording the
 *      removed bits for the caller-held undo token);
 *   2. not viable -> restore immediately, return 0 (pruned);
 *   3. viable -> add the element back to cand_loop (it becomes a candidate
 *      again for later siblings);
 *   4. build the child state in the next arena slot:
 *      evidences not covered by the element survive, the child candidate
 *      plane loses the element's whole predicate group, and the child's
 *      candidate-overlap counts are recomputed against that plane.  The
 *      criticality planes stay APPLIED (depth becomes crit_depth + 1); the
 *      caller undoes them when the child subtree returns.  Returns 1.
 *
 * out_scalars = {element, E_child, child_pair_sum}.
 */
static int32_t adc_search_try_hit(
    intptr_t ev_p, int64_t stride, int32_t n_words, int64_t n_cols,
    intptr_t pairs_p, intptr_t uncov_p, intptr_t cand_loop_p,
    int32_t n_cand_words, intptr_t elements_p, intptr_t covers_block_p,
    intptr_t crit_block_p, intptr_t child_bits_p, int32_t n_ev_words,
    int64_t position, intptr_t crit_rows_p, int64_t crit_stride,
    int64_t crit_depth, intptr_t removed_p, intptr_t group_inv_p,
    int64_t group_stride, intptr_t child_ev_p,
    int64_t child_stride, intptr_t child_cin_p, intptr_t child_pairs_p,
    intptr_t child_uncov_p, intptr_t child_cand_p, intptr_t child_bits_out_p,
    intptr_t out_scalars_p)
{
    const uint64_t *ev = (const uint64_t *)ev_p;
    const int64_t *pairs = (const int64_t *)pairs_p;
    const int64_t *uncov = (const int64_t *)uncov_p;
    uint64_t *cand_loop = (uint64_t *)cand_loop_p;
    const int32_t *elements = (const int32_t *)elements_p;
    const uint64_t *covers_block = (const uint64_t *)covers_block_p;
    const uint64_t *crit_block = (const uint64_t *)crit_block_p;
    const uint64_t *child_bits = (const uint64_t *)child_bits_p;
    int64_t *out = (int64_t *)out_scalars_p;

    int32_t element = elements[position];
    const uint64_t *covers = covers_block + position * (int64_t)n_ev_words;
    out[0] = element;
    out[1] = 0;
    out[2] = 0;

    int32_t viable = adc_crit_apply(
        crit_rows_p, crit_stride, n_ev_words, crit_depth,
        (intptr_t)(crit_block + position * (int64_t)n_ev_words),
        (intptr_t)covers, removed_p);
    if (!viable) {
        adc_crit_undo(crit_rows_p, crit_stride, n_ev_words, crit_depth,
                      removed_p);
        return 0;
    }
    cand_loop[element >> 6] |= (uint64_t)1 << (element & 63);

    uint64_t *child_ev = (uint64_t *)child_ev_p;
    uint32_t *child_cin = (uint32_t *)child_cin_p;
    int64_t *child_pairs = (int64_t *)child_pairs_p;
    int64_t *child_uncov = (int64_t *)child_uncov_p;
    uint64_t *child_cand = (uint64_t *)child_cand_p;
    const uint64_t *group_inv =
        (const uint64_t *)group_inv_p + (int64_t)element * group_stride;

    for (int32_t w = 0; w < n_cand_words; w++)
        child_cand[w] = cand_loop[w] & group_inv[w];
    /* The element added itself back to cand_loop above, but its own group
     * mask removes it again, so child_cand never contains the element. */

    const uint64_t *hit_row = ev + (int64_t)(element >> 6) * stride;
    uint64_t bit = (uint64_t)1 << (element & 63);
    int64_t m = 0;
    int64_t pair_sum = 0;
    for (int64_t e = 0; e < n_cols; e++) {
        if (hit_row[e] & bit)
            continue;
        for (int32_t w = 0; w < n_words; w++)
            child_ev[(int64_t)w * child_stride + m] =
                ev[(int64_t)w * stride + e];
        child_pairs[m] = pairs[e];
        if (uncov)
            child_uncov[m] = uncov[e];
        pair_sum += pairs[e];
        m++;
    }
    memset(child_cin, 0, (size_t)m * sizeof(uint32_t));
    for (int32_t w = 0; w < n_words; w++) {
        uint64_t mask = child_cand[w];
        if (!mask)
            continue;
        const uint64_t *row = child_ev + (int64_t)w * child_stride;
        for (int64_t e = 0; e < m; e++)
            child_cin[e] += (uint32_t)POPCOUNT(row[e] & mask);
    }
    memcpy((uint64_t *)child_bits_out_p,
           child_bits + position * (int64_t)n_ev_words,
           (size_t)n_ev_words * sizeof(uint64_t));
    out[1] = m;
    out[2] = pair_sum;
    return 1;
}

/* ------------------------------------------------------------------ */
/* ADCEnum driver                                                      */
/* ------------------------------------------------------------------ */

/* The whole explicit-stack search of ADCEnum (Figures 4 and 5) over the
 * per-node kernels above.  Its reference is the numpy workspace's search
 * in the tests, which composes the same steps node for node, so the
 * traversal order, the counters and the outputs are the same.
 *
 * The pass test (base case, WillCover, each IsMinimal member) takes the
 * candidate's uncovered pair count.  With an integer bound K (f1, and f1'
 * below epsilon 0.5; see ApproximationFunction.pair_bound) it is "pairs
 * <= K", so no floating-point score is evaluated here.  Otherwise it is
 * the caller's callback, which may need the candidate's uncovered evidence
 * ids too: a search created with track_uncov threads per-slot uncov ids
 * and, before each call, writes the candidate's ids to the caller's ids
 * buffer (capacity n_evidences) — the node's uncov ids at the base case,
 * the ids whose reduced overlap is zero at WillCover, and for IsMinimal
 * the node's ids followed by the member's critical ids in ascending order.
 * Without track_uncov the driver passes no ids and drops dead evidences
 * (no candidate overlap left) from the skip branch's child: only their
 * pairs, kept in the frame's dead count, can still decide a test.
 *
 * IsMinimal weighs each member's criticality row against the evidence
 * multiplicities.  The search is resumable: adc_enum_run returns when the
 * search ends, when a progress report is due, when the output buffer is
 * full or when the callback aborts, and the next call continues where it
 * stopped (or restarts).  Frames, slots and criticality planes live in an
 * EnumSearch owned by the caller's workspace (adc_enum_new /
 * adc_enum_free).
 *
 * Slot buffers have capacity n_evidences and are allocated per depth on
 * first use; nothing is allocated per node. */

enum {
    ENUM_DONE = 0, ENUM_PAUSED = 1, ENUM_FULL = 2, ENUM_NOMEM = -1, ENUM_ABORT = -2
};

/* The pass-test callback: (number of ids written, uncovered pairs) in;
 * 1 passes, 0 fails, a negative value aborts the search. */
typedef int32_t (*EnumPasses)(int64_t n_ids, int64_t pairs);

/* Frame phases: ENTER counts the node (and may pause for a progress
 * report), BODY runs the base case, the expansion and the skip branch,
 * HIT_SETUP prepares the hit loop once the skip subtree has returned,
 * HIT_LOOP tries one element per step, resuming after each hit child. */
enum { PHASE_ENTER = 0, PHASE_BODY, PHASE_HIT_SETUP, PHASE_HIT_LOOP };

/* Counter slots reported to the caller, in EnumerationStatistics order. */
enum {
    C_CALLS = 0, C_HITS, C_SKIPS, C_WILLCOVER, C_CRITICALITY, C_MINIMALITY,
    C_MAX_DEPTH, C_OUTPUTS, C_COUNT
};

typedef struct {
    int64_t n, uncovered, dead, n_to_try, k, position;
    int32_t phase, returning;
} EnumFrame;

typedef struct {
    uint64_t *ev;                        /* (n_words, n_ev), stride n_ev */
    uint64_t *cand_in, *to_try, *cand_loop; /* n_words each */
    uint64_t *uncov_bits;                /* n_ev_words */
    uint64_t *covers, *crit, *child_bits; /* (max_k, n_ev_words) each */
    int64_t *pairs;                      /* n_ev */
    int64_t *uncov;                      /* n_ev with track_uncov, else NULL */
    uint32_t *cin, *red;                 /* n_ev each */
    int32_t *elements;                   /* max_k */
} EnumSlot;

typedef struct {
    /* The evidence planes, borrowed from the caller's workspace. */
    const uint64_t *ev_root;      /* (n_words, n_ev) */
    const int64_t *counts;        /* n_ev */
    const uint64_t *contains;     /* (n_predicates, n_ev_words) */
    const uint64_t *group_inv;    /* (n_predicates, n_words) */
    const uint64_t *full_cand;    /* n_words */
    int64_t n_ev, n_predicates;
    int32_t n_words, n_ev_words, track_uncov;
    /* Most predicates of one evidence: bounds every hit loop's length. */
    int64_t max_k;
    /* Parameters of the current search; passes is NULL for the bound test,
     * and it and ids are re-read on every call. */
    int64_t bound, max_dc_size, interval, next_progress;
    int32_t selection;
    EnumPasses passes;
    int64_t *ids;                 /* the caller's n_ev ids */
    /* Arena: n_predicates + 2 frames and slots (a depth consumes at least
     * one candidate), criticality rows and their per-depth undo tokens. */
    EnumFrame *frames;
    EnumSlot **slots;
    uint64_t *crit_rows;          /* (n_predicates + 1, n_ev_words) */
    uint64_t **removed;           /* removed[d]: (max(d, 1), n_ev_words) */
    int32_t *members;             /* the hitting set S, in insertion order */
    int64_t depth, n_members;     /* n_members is also the criticality depth */
    int64_t counters[C_COUNT];
} EnumSearch;

static EnumSlot *enum_slot(EnumSearch *s, int64_t depth)
{
    EnumSlot *slot = s->slots[depth];
    if (slot)
        return slot;
    const size_t cap = s->n_ev > 0 ? (size_t)s->n_ev : 1;
    const size_t k = s->max_k > 0 ? (size_t)s->max_k : 1;
    const size_t nw = (size_t)s->n_words, new = (size_t)s->n_ev_words;
    const size_t uncov = s->track_uncov ? cap : 0;
    const size_t words = nw * cap + 3 * nw + new + 3 * k * new + cap + uncov;
    const size_t bytes = sizeof(EnumSlot) + words * sizeof(uint64_t)
                         + (2 * cap + k) * sizeof(uint32_t);
    char *memory = (char *)malloc(bytes);
    if (!memory)
        return NULL;
    slot = (EnumSlot *)memory;
    uint64_t *w = (uint64_t *)(memory + sizeof(EnumSlot));
    slot->ev = w;              w += nw * cap;
    slot->cand_in = w;         w += nw;
    slot->to_try = w;          w += nw;
    slot->cand_loop = w;       w += nw;
    slot->uncov_bits = w;      w += new;
    slot->covers = w;          w += k * new;
    slot->crit = w;            w += k * new;
    slot->child_bits = w;      w += k * new;
    slot->pairs = (int64_t *)w; w += cap;
    slot->uncov = uncov ? (int64_t *)w : NULL; w += uncov;
    slot->cin = (uint32_t *)w;
    slot->red = slot->cin + cap;
    slot->elements = (int32_t *)(slot->red + cap);
    s->slots[depth] = slot;
    return slot;
}

static uint64_t *enum_removed(EnumSearch *s, int64_t crit_depth)
{
    uint64_t *buffer = s->removed[crit_depth];
    if (!buffer) {
        size_t rows = crit_depth > 0 ? (size_t)crit_depth : 1;
        buffer = (uint64_t *)malloc(rows * (size_t)s->n_ev_words * sizeof(uint64_t));
        s->removed[crit_depth] = buffer;
    }
    return buffer;
}

void adc_enum_free(intptr_t search_p)
{
    EnumSearch *s = (EnumSearch *)search_p;
    if (!s)
        return;
    for (int64_t d = 0; d < s->n_predicates + 2; d++) {
        if (s->slots)
            free(s->slots[d]);
        if (s->removed)
            free(s->removed[d]);
    }
    free(s->slots);
    free(s->removed);
    free(s->frames);
    free(s->crit_rows);
    free(s->members);
    free(s);
}

/* A search over the given evidence planes (the layouts of the Python
 * workspace's root arrays); track_uncov != 0 threads the uncovered ids
 * the callback needs.  0 when memory runs out. */
intptr_t adc_enum_new(intptr_t ev_p, intptr_t counts_p, intptr_t contains_p,
                      intptr_t group_inv_p, intptr_t full_cand_p, int64_t n_ev,
                      int32_t n_words, int32_t n_ev_words, int64_t n_predicates,
                      int32_t track_uncov)
{
    EnumSearch *s = (EnumSearch *)calloc(1, sizeof(EnumSearch));
    if (!s)
        return 0;
    s->ev_root = (const uint64_t *)ev_p;
    s->counts = (const int64_t *)counts_p;
    s->contains = (const uint64_t *)contains_p;
    s->group_inv = (const uint64_t *)group_inv_p;
    s->full_cand = (const uint64_t *)full_cand_p;
    s->n_ev = n_ev;
    s->n_words = n_words;
    s->n_ev_words = n_ev_words;
    s->n_predicates = n_predicates;
    s->track_uncov = track_uncov != 0;
    for (int64_t e = 0; e < n_ev; e++) {
        int64_t k = 0;
        for (int32_t w = 0; w < n_words; w++)
            k += (int64_t)POPCOUNT(s->ev_root[(int64_t)w * n_ev + e]);
        if (k > s->max_k)
            s->max_k = k;
    }
    const size_t levels = (size_t)n_predicates + 2;
    s->frames = (EnumFrame *)calloc(levels, sizeof(EnumFrame));
    s->slots = (EnumSlot **)calloc(levels, sizeof(EnumSlot *));
    s->removed = (uint64_t **)calloc(levels, sizeof(uint64_t *));
    s->crit_rows = (uint64_t *)calloc(levels * (size_t)(n_ev_words > 0 ? n_ev_words : 1),
                                      sizeof(uint64_t));
    s->members = (int32_t *)calloc(levels, sizeof(int32_t));
    if (!s->frames || !s->slots || !s->removed || !s->crit_rows || !s->members) {
        adc_enum_free((intptr_t)s);
        return 0;
    }
    return (intptr_t)s;
}

/* Load the root node into slot 0 and reset the stack and the counters. */
static int32_t enum_restart(EnumSearch *s)
{
    EnumSlot *root = enum_slot(s, 0);
    if (!root)
        return ENUM_NOMEM;
    const int64_t n = s->n_ev;
    for (int32_t w = 0; w < s->n_words; w++)
        memcpy(root->ev + (int64_t)w * n, s->ev_root + (int64_t)w * n,
               (size_t)n * sizeof(uint64_t));
    memcpy(root->pairs, s->counts, (size_t)n * sizeof(int64_t));
    if (root->uncov)
        for (int64_t e = 0; e < n; e++)
            root->uncov[e] = e;
    adc_intersection_counts((intptr_t)root->ev, n, s->n_words, n,
                            (intptr_t)s->full_cand, (intptr_t)root->cin);
    memcpy(root->cand_in, s->full_cand, (size_t)s->n_words * sizeof(uint64_t));
    int64_t total = 0;
    for (int64_t e = 0; e < n; e++)
        total += s->counts[e];
    for (int32_t v = 0; v < s->n_ev_words; v++) {
        int64_t bits = n - (int64_t)v * 64;
        root->uncov_bits[v] = bits >= 64 ? ~(uint64_t)0
                              : bits > 0 ? ((uint64_t)1 << bits) - 1 : 0;
    }
    EnumFrame *frame = &s->frames[0];
    memset(frame, 0, sizeof(EnumFrame));
    frame->n = n;
    frame->uncovered = total;
    frame->phase = PHASE_ENTER;
    s->depth = 0;
    s->n_members = 0;
    memset(s->counters, 0, sizeof(s->counters));
    s->next_progress = s->interval > 0 ? s->interval : INT64_MAX;
    return ENUM_DONE;
}

/* The callback's verdict on the n_ids ids in s->ids: 1 passes, 0 fails,
 * ENUM_ABORT when the callback aborts. */
static int32_t enum_call(const EnumSearch *s, int64_t n_ids, int64_t pairs)
{
    int32_t verdict = s->passes(n_ids, pairs);
    return verdict < 0 ? ENUM_ABORT : verdict != 0;
}

/* The base-case pass test of a node whose slot holds its n evidences. */
static int32_t enum_passes(EnumSearch *s, const EnumSlot *slot, int64_t n,
                           int64_t uncovered)
{
    if (!s->passes)
        return uncovered <= s->bound;
    if (!slot->uncov)
        return enum_call(s, 0, uncovered);
    memcpy(s->ids, slot->uncov, (size_t)n * sizeof(int64_t));
    return enum_call(s, n, uncovered);
}

/* WillCover: would the node still pass with every evidence of zero reduced
 * overlap (doomed by the skip branch) uncovered, and `pairs` in all? */
static int32_t enum_will_cover(EnumSearch *s, const EnumSlot *slot, int64_t n,
                               int64_t pairs)
{
    if (!s->passes)
        return pairs <= s->bound;
    int64_t n_ids = 0;
    if (slot->uncov)
        for (int64_t e = 0; e < n; e++)
            if (!slot->red[e])
                s->ids[n_ids++] = slot->uncov[e];
    return enum_call(s, n_ids, pairs);
}

/* IsMinimal (Figure 5): S is minimal unless dropping some member passes,
 * and dropping member d un-covers exactly the evidences of its
 * criticality row.  Returns 1 (minimal), 0, or ENUM_ABORT. */
static int32_t enum_is_minimal(EnumSearch *s, const EnumSlot *slot, int64_t n,
                               int64_t uncovered)
{
    s->counters[C_MINIMALITY]++;
    const int64_t slack = s->bound - uncovered;
    for (int64_t d = 0; d < s->n_members; d++) {
        const uint64_t *row = s->crit_rows + d * (int64_t)s->n_ev_words;
        int64_t extra = 0;
        if (!s->passes) {
            for (int32_t v = 0; v < s->n_ev_words && extra <= slack; v++) {
                uint64_t word = row[v];
                while (word) {
                    extra += s->counts[(int64_t)v * 64 + __builtin_ctzll(word)];
                    word &= word - 1;
                }
            }
            if (extra <= slack)
                return 0;
            continue;
        }
        int64_t n_ids = 0;
        if (slot->uncov) {
            memcpy(s->ids, slot->uncov, (size_t)n * sizeof(int64_t));
            n_ids = n;
        }
        for (int32_t v = 0; v < s->n_ev_words; v++) {
            uint64_t word = row[v];
            while (word) {
                int64_t e = (int64_t)v * 64 + __builtin_ctzll(word);
                extra += s->counts[e];
                if (slot->uncov)
                    s->ids[n_ids++] = e;
                word &= word - 1;
            }
        }
        int32_t verdict = enum_call(s, n_ids, uncovered + extra);
        if (verdict)
            return verdict < 0 ? verdict : 0;
    }
    return 1;
}

static void enum_enter(EnumSearch *s, int64_t n, int64_t uncovered, int64_t dead)
{
    EnumFrame *child = &s->frames[++s->depth];
    child->n = n;
    child->uncovered = uncovered;
    child->dead = dead;
    child->phase = PHASE_ENTER;
    child->returning = 0;
    if (s->depth > s->counters[C_MAX_DEPTH])
        s->counters[C_MAX_DEPTH] = s->depth;
}

/* Run (restart != 0) or resume the search.  The pass test is "uncovered
 * pairs <= bound" when passes_p is 0, else the callback at passes_p, which
 * reads the ids written to ids_p.  Each output is one row of `out`
 * (out_rows x out_width int64): uncovered pairs, |S|, then the members of
 * S; out_width must be at least 2 + min(max_dc_size, n_predicates).
 * counters (C_COUNT int64) receives the search counters and the number of
 * output rows written by this call.  Returns ENUM_DONE, ENUM_PAUSED
 * (progress_interval nodes passed since the last report; 0 disables),
 * ENUM_FULL (out has out_rows rows), ENUM_NOMEM or ENUM_ABORT (the
 * callback aborted; the search must restart). */
int32_t adc_enum_run(intptr_t search_p, int32_t restart, int64_t bound,
                     intptr_t passes_p, intptr_t ids_p, int32_t selection,
                     int64_t max_dc_size, int64_t progress_interval,
                     intptr_t out_p, int64_t out_rows, int64_t out_width,
                     intptr_t counters_p)
{
    EnumSearch *s = (EnumSearch *)search_p;
    int64_t *out = (int64_t *)out_p;
    int64_t *c = s->counters;
    const int64_t nw = s->n_words, new = s->n_ev_words, cap = s->n_ev;
    /* Without ids a skip child may drop its dead evidences. */
    const int32_t compact = !s->track_uncov;
    int64_t scalars[4];
    int64_t n_out = 0;
    int32_t status = ENUM_DONE;
    int32_t verdict;

    s->passes = (EnumPasses)passes_p;
    s->ids = (int64_t *)ids_p;
    if (restart) {
        s->bound = bound;
        s->selection = selection;
        s->max_dc_size = max_dc_size;
        s->interval = progress_interval;
        status = enum_restart(s);
        if (status != ENUM_DONE)
            goto done;
    }
    while (s->depth >= 0) {
        const int64_t depth = s->depth;
        EnumFrame *f = &s->frames[depth];
        EnumSlot *slot = s->slots[depth];
        EnumSlot *child;

        if (f->phase == PHASE_HIT_LOOP) {
            if (f->returning) {
                f->returning = 0;
                s->n_members--;
                adc_crit_undo((intptr_t)s->crit_rows, new, (int32_t)new,
                              s->n_members,
                              (intptr_t)s->removed[s->n_members]);
                f->position++;
            }
            child = enum_slot(s, depth + 1);
            uint64_t *removed = enum_removed(s, s->n_members);
            if (!child || !removed) {
                status = ENUM_NOMEM;
                goto done;
            }
            int entered = 0;
            while (f->position < f->k) {
                if (adc_search_try_hit(
                        (intptr_t)slot->ev, cap, (int32_t)nw, f->n,
                        (intptr_t)slot->pairs, (intptr_t)slot->uncov,
                        (intptr_t)slot->cand_loop,
                        (int32_t)nw, (intptr_t)slot->elements,
                        (intptr_t)slot->covers, (intptr_t)slot->crit,
                        (intptr_t)slot->child_bits, (int32_t)new, f->position,
                        (intptr_t)s->crit_rows, new, s->n_members,
                        (intptr_t)removed, (intptr_t)s->group_inv, nw,
                        (intptr_t)child->ev, cap, (intptr_t)child->cin,
                        (intptr_t)child->pairs, (intptr_t)child->uncov,
                        (intptr_t)child->cand_in,
                        (intptr_t)child->uncov_bits, (intptr_t)scalars)) {
                    c[C_HITS]++;
                    s->members[s->n_members++] = (int32_t)scalars[0];
                    f->returning = 1;
                    enum_enter(s, scalars[1], f->dead + scalars[2], f->dead);
                    entered = 1;
                    break;
                }
                c[C_CRITICALITY]++;
                f->position++;
            }
            if (!entered)
                s->depth--;
            continue;
        }

        if (f->phase == PHASE_ENTER) {
            c[C_CALLS]++;
            f->phase = PHASE_BODY;
            if (c[C_CALLS] >= s->next_progress) {
                s->next_progress = c[C_CALLS] + s->interval;
                status = ENUM_PAUSED;
                goto done;
            }
        }

        if (f->phase == PHASE_BODY) {
            /* Base case: report S when it passes and is minimal; no
             * strict superset of a passing S is a minimal ADC. */
            verdict = enum_passes(s, slot, f->n, f->uncovered);
            if (verdict > 0) {
                verdict = enum_is_minimal(s, slot, f->n, f->uncovered);
                if (verdict > 0) {
                    int64_t *row = out + n_out * out_width;
                    row[0] = f->uncovered;
                    row[1] = s->n_members;
                    for (int64_t i = 0; i < s->n_members; i++)
                        row[2 + i] = s->members[i];
                    n_out++;
                }
                if (verdict >= 0) {
                    s->depth--;
                    if (n_out == out_rows) {
                        status = ENUM_FULL;
                        goto done;
                    }
                    continue;
                }
            }
            if (verdict < 0) {
                status = verdict;
                goto done;
            }
            adc_search_expand((intptr_t)slot->ev, cap, (int32_t)nw, f->n,
                              (intptr_t)slot->cin, (intptr_t)slot->pairs,
                              (intptr_t)slot->cand_in, (int32_t)nw,
                              s->selection, c[C_CALLS], (intptr_t)slot->to_try,
                              (intptr_t)slot->cand_loop, (intptr_t)slot->red,
                              (intptr_t)scalars);
            if (scalars[1] == 0) {
                s->depth--;
                continue;
            }
            f->n_to_try = scalars[3];
            f->phase = PHASE_HIT_SETUP;
            /* Skip branch, guarded by WillCover: the evidences the skip
             * dooms join the dead pairs, and a compacting child drops
             * them. */
            const int64_t will_cover = f->dead + scalars[2];
            verdict = enum_will_cover(s, slot, f->n, will_cover);
            if (verdict < 0) {
                status = verdict;
                goto done;
            }
            if (!verdict) {
                c[C_WILLCOVER]++;
                continue;
            }
            c[C_SKIPS]++;
            child = enum_slot(s, depth + 1);
            if (!child) {
                status = ENUM_NOMEM;
                goto done;
            }
            int64_t m = adc_search_skip_child(
                (intptr_t)slot->ev, cap, (int32_t)nw, f->n, (intptr_t)slot->red,
                (intptr_t)slot->pairs, (intptr_t)slot->uncov, compact,
                (intptr_t)child->ev, cap, (intptr_t)child->cin,
                (intptr_t)child->pairs, (intptr_t)child->uncov);
            memcpy(child->cand_in, slot->cand_loop, (size_t)nw * sizeof(uint64_t));
            memcpy(child->uncov_bits, slot->uncov_bits, (size_t)new * sizeof(uint64_t));
            enum_enter(s, m, f->uncovered, compact ? will_cover : f->dead);
            continue;
        }

        /* PHASE_HIT_SETUP: the skip subtree (if any) has returned. */
        if (s->n_members >= s->max_dc_size) {
            s->depth--;
            continue;
        }
        f->k = adc_search_hit_prepare(
            (intptr_t)slot->to_try, (int32_t)nw, (intptr_t)s->contains, new,
            (intptr_t)slot->uncov_bits, (int32_t)new, (intptr_t)slot->elements,
            (intptr_t)slot->covers, (intptr_t)slot->crit,
            (intptr_t)slot->child_bits);
        f->position = 0;
        f->returning = 0;
        f->phase = PHASE_HIT_LOOP;
    }
done:
    memcpy((int64_t *)counters_p, c, sizeof(s->counters));
    ((int64_t *)counters_p)[C_OUTPUTS] = n_out;
    return status;
}
