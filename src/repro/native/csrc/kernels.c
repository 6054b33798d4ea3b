/* Compiled kernels of the ADC hot paths.
 *
 * Every function here mirrors, bit for bit, a pure-numpy reference in
 * repro.native.numpy_backend — the dispatch layer verifies the two against
 * each other on random inputs before trusting this library, and the repo's
 * enumeration/engine invariant suites assert end-to-end output identity.
 *
 * Conventions shared by all kernels:
 *   - Evidence planes are transposed word planes: shape (n_words, E),
 *     row stride `stride` in *elements* (rows may be views of a wider
 *     arena buffer, so stride >= E; within a row elements are contiguous).
 *   - Bit b of a packed bitset lives at word b / 64, bit b % 64.
 *   - All pointers arrive as intptr_t so the Python side can pass cached
 *     integer addresses without per-call FFI casts.
 *
 * The search_* family implements the per-node work of the ADCEnum explicit
 * stack (see repro.core.adc_enum): each call fuses what used to be a dozen
 * small numpy dispatches into one pass over the node's arrays.  The enum_*
 * entry points at the end run the whole stack over those kernels; their
 * reference is the Python driver over the numpy arena.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define POPCOUNT(x) ((uint64_t)__builtin_popcountll(x))

/* ------------------------------------------------------------------ */
/* Flat kernels                                                        */
/* ------------------------------------------------------------------ */

/* Per-element popcount of a contiguous uint64 buffer (uint8 out, matching
 * numpy.bitwise_count). */
void adc_popcount(intptr_t words_p, int64_t n, intptr_t out_p)
{
    const uint64_t *words = (const uint64_t *)words_p;
    uint8_t *out = (uint8_t *)out_p;
    for (int64_t i = 0; i < n; i++)
        out[i] = (uint8_t)POPCOUNT(words[i]);
}

/* Fused |evidence ∩ mask| over a transposed (n_words, E) plane: one pass
 * per word row, accumulating uint32 counts. */
void adc_intersection_counts(intptr_t ev_p, int64_t stride, int32_t n_words,
                             int64_t n_cols, intptr_t mask_p, intptr_t out_p)
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

/* CriticalityPlanes.apply as one fused pass: strip `covers` from every
 * member row (recording the removed bits), test viability, install the new
 * row at `depth`.  Returns 1 when every previous member keeps a bit. */
int32_t adc_crit_apply(intptr_t rows_p, int64_t stride, int32_t n_words,
                       int64_t depth, intptr_t new_row_p, intptr_t covers_p,
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

/* CriticalityPlanes.undo: restore the removed bits of every member row. */
void adc_crit_undo(intptr_t rows_p, int64_t stride, int32_t n_words,
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
 * groups; `out` is the (n_pairs, n_words) plane, n_pairs = tile area,
 * pair index p = (i - i0) * (j1 - j0) + (j - j0).  Every word of `out` is
 * written, so it need not be initialized.  Returns 0, or -1 when a space
 * too wide for the stack scratch cannot get its heap scratch.
 *
 * The OR is order-free, so the pass is organised for the vector unit
 * rather than pair by pair:
 *   - the pass runs along the tile's longer side: "lines" are rows when
 *     the tile is at least as wide as tall, else columns, so an n x 1
 *     strip is one long line, like a 1 x n strip, not n lines of one pair;
 *   - lines are cut into blocks of up to TILE_BLOCK pairs, accumulated in
 *     one contiguous buffer per word, and only then interleaved into the
 *     pair-major output;
 *   - the single-tuple groups depend on i only: they are folded into one
 *     base word per row (per block of rows when lines are columns), which
 *     seeds the accumulators;
 *   - each pair group then ORs its branch-free select over a contiguous
 *     run of its comparison values into the buffers, two words at a time.
 */
int32_t adc_tile_plane(intptr_t kinds_p, int64_t n_groups, intptr_t a_p,
                       intptr_t b_p, int64_t row_stride, intptr_t lookup_p,
                       int32_t n_words, int64_t i0, int64_t i1, int64_t j0,
                       int64_t j1, intptr_t out_p)
{
    const int32_t *kinds = (const int32_t *)kinds_p;
    const double *a = (const double *)a_p;
    const double *b = (const double *)b_p;
    const uint64_t *lookup = (const uint64_t *)lookup_p;
    uint64_t *out = (uint64_t *)out_p;
    const int64_t height = i1 - i0, width = j1 - j0;
    const int64_t nw = n_words;
    if (height <= 0 || width <= 0 || nw <= 0)
        return 0;

    uint64_t stack[2 * TILE_SCRATCH];
    uint64_t *scratch = stack;
    int64_t block = TILE_SCRATCH / nw < TILE_BLOCK ? TILE_SCRATCH / nw : TILE_BLOCK;
    if (block == 0) {
        block = 1;
        scratch = (uint64_t *)malloc(2 * (size_t)nw * sizeof(uint64_t));
        if (!scratch)
            return -1;
    }
    uint64_t *acc = scratch;             /* acc[w * block + k] */
    uint64_t *base = scratch + nw * block; /* same layout, rows of a block */

    const int tall = height > width;
    const int64_t n_lines = tall ? width : height;
    const int64_t line_len = tall ? height : width;
    /* Pair-index distance between neighbours along a line. */
    const int64_t step = tall ? width : 1;
    for (int64_t k0 = 0; k0 < line_len; k0 += block) {
        const int64_t len = line_len - k0 < block ? line_len - k0 : block;
        if (tall) {
            /* The block's rows are the same for every column: fold their
             * single-tuple words once. */
            memset(base, 0, (size_t)(nw * block) * sizeof(uint64_t));
            for (int64_t g = 0; g < n_groups; g++) {
                if (kinds[g] != 0)
                    continue;
                const double *ga = a + g * row_stride + i0 + k0;
                const uint64_t *l = lookup + g * 3 * nw;
                for (int64_t w = 0; w < nw; w++) {
                    uint64_t *bw = base + w * block;
                    const uint64_t l0 = l[w], l1 = l[nw + w], l2 = l[2 * nw + w];
                    const uint64_t x21 = l2 ^ l1, x10 = l1 ^ l0;
                    for (int64_t k = 0; k < len; k++)
                        bw[k] |= SELECT3(MASK(ga[k] < 2.0), MASK(ga[k] < 1.0), l2, x21, x10);
                }
            }
        }
        for (int64_t line = 0; line < n_lines; line++) {
            for (int64_t w = 0; w < nw; w++) {
                uint64_t *aw = acc + w * block;
                if (tall) {
                    memcpy(aw, base + w * block, (size_t)len * sizeof(uint64_t));
                    continue;
                }
                uint64_t row_base = 0;
                for (int64_t g = 0; g < n_groups; g++)
                    if (kinds[g] == 0)
                        row_base |= tile_single(a[g * row_stride + i0 + line],
                                                lookup + g * 3 * nw, nw, w);
                for (int64_t k = 0; k < len; k++)
                    aw[k] = row_base;
            }
            for (int64_t g = 0; g < n_groups; g++) {
                const int32_t kind = kinds[g];
                if (kind == 0)
                    continue;
                const double *ga = a + g * row_stride;
                const double *gb = b + g * row_stride;
                const double *vary = tall ? ga + i0 + k0 : gb + j0 + k0;
                const double fixed = tall ? gb[j0 + line] : ga[i0 + line];
                const uint64_t *l = lookup + g * 3 * nw;
                for (int64_t w = 0; w < nw; w += 2)
                    tile_pair_group(acc + w * block,
                                    w + 1 < nw ? acc + (w + 1) * block : NULL,
                                    len, kind, tall, vary, fixed, l, nw, w);
            }
            uint64_t *o = out + (tall ? k0 * width + line : line * width + k0) * nw;
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
    if (scratch != stack)
        free(scratch);
    return 0;
}

/* murmur3's 64-bit finalizer: every input bit flips each output bit with
 * probability about 1/2.  The multiply-based row hash only carries bits
 * upward, so without this a slot (its low bits) would ignore every bit of
 * a word above log2(table size) — evidences differing only in higher
 * predicate bits would share one probe chain. */
static inline uint64_t fmix64(uint64_t h)
{
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
}

static inline uint64_t row_hash(const uint64_t *row, int64_t w)
{
    /* FNV-1a over the row's words, then the full-avalanche finalizer. */
    uint64_t h = 1469598103934665603ULL;
    for (int64_t k = 0; k < w; k++) {
        h ^= row[k];
        h *= 1099511628211ULL;
    }
    return fmix64(h);
}

/* Slots of the dedup's open-addressing table on the stack (32 KiB).  The
 * table keeps its load at most 1/4 — short probe chains — and moves to the
 * heap, doubling, only when a plane has more than DEDUP_STACK_SLOTS / 4
 * distinct rows.  Slots hold unique index + 1 (0 = empty) as uint32, so a
 * plane may have at most UINT32_MAX - 1 rows (the wrapper checks). */
#define DEDUP_STACK_SLOTS 8192

/* Re-insert the first n_unique rows of uniq into an empty table of
 * mask + 1 slots. */
static void dedup_rehash(uint32_t *table, uint64_t mask, const uint64_t *uniq,
                         int64_t n_unique, int64_t w)
{
    memset(table, 0, (size_t)(mask + 1) * sizeof(uint32_t));
    for (int64_t v = 0; v < n_unique; v++) {
        uint64_t s = row_hash(uniq + v * w, w) & mask;
        while (table[s])
            s = (s + 1) & mask;
        table[s] = (uint32_t)(v + 1);
    }
}

/* Hash-deduplicate the rows of a contiguous (n, w) uint64 plane.
 *
 * First-seen unique rows are appended to `uniq` (capacity n rows);
 * `inverse[r]` is row r's unique index and `counts[u]` its multiplicity
 * (every returned count is written here, so `counts` need not be
 * initialized).  Returns the number of unique rows, or -1 when the table
 * cannot grow onto the heap.  Uniques come out in first-seen order — the
 * Python wrapper re-sorts the (small) unique set into the canonical
 * lexicographic order and remaps inverse/counts, so the hash order never
 * leaks out. */
int64_t adc_unique_rows(intptr_t words_p, int64_t n, int64_t w,
                        intptr_t uniq_p, intptr_t inverse_p, intptr_t counts_p)
{
    const uint64_t *words = (const uint64_t *)words_p;
    uint64_t *uniq = (uint64_t *)uniq_p;
    int64_t *inverse = (int64_t *)inverse_p;
    int64_t *counts = (int64_t *)counts_p;
    uint32_t stack[DEDUP_STACK_SLOTS];
    uint32_t *table = stack;
    uint64_t mask = DEDUP_STACK_SLOTS - 1;
    int64_t n_unique = 0;
    memset(stack, 0, sizeof(stack));

    for (int64_t r = 0; r < n; r++) {
        const uint64_t *row = words + r * w;
        uint64_t slot = row_hash(row, w) & mask;
        int64_t u;
        for (;;) {
            u = (int64_t)table[slot] - 1;
            if (u < 0)
                break;
            const uint64_t *candidate = uniq + u * w;
            int64_t k = 0;
            while (k < w && candidate[k] == row[k])
                k++;
            if (k == w)
                break;
            slot = (slot + 1) & mask;
        }
        if (u >= 0) {
            counts[u]++;
            inverse[r] = u;
            continue;
        }
        u = n_unique++;
        for (int64_t k = 0; k < w; k++)
            uniq[u * w + k] = row[k];
        counts[u] = 1;
        inverse[r] = u;
        table[slot] = (uint32_t)(u + 1);
        if (4 * (uint64_t)n_unique > mask + 1) {
            uint64_t slots = 2 * (mask + 1);
            uint32_t *grown = (uint32_t *)malloc(slots * sizeof(uint32_t));
            if (table != stack)
                free(table);
            if (!grown)
                return -1;
            table = grown;
            mask = slots - 1;
            dedup_rehash(table, mask, uniq, n_unique, w);
        }
    }
    if (table != stack)
        free(table);
    return n_unique;
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
void adc_search_expand(intptr_t ev_p, int64_t stride, int32_t n_words,
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
 * the child is a verbatim copy.  uncov pointers may be 0 (pair-determined
 * mode threads no index array).  Returns the child's evidence count. */
int64_t adc_search_skip_child(intptr_t ev_p, int64_t stride, int32_t n_words,
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
int64_t adc_search_hit_prepare(intptr_t to_try_p, int32_t n_cand_words,
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
int32_t adc_search_try_hit(
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
/* ADCEnum driver for pair-determined functions                        */
/* ------------------------------------------------------------------ */

/* The whole explicit-stack search of ADCEnum._run_search (Figures 4 and
 * 5), run in C for functions whose pass test is "uncovered pairs <= K"
 * (f1, and f1' below epsilon 0.5; see ApproximationFunction.pair_bound).
 * The driver composes the per-node kernels above exactly as the Python
 * driver calls them, so the traversal order, the counters and the outputs
 * are the Python driver's.  Differences are confined to mechanism:
 *
 *   - the pass tests (base case, WillCover, IsMinimal) compare integer pair
 *     counts with K, so no floating-point score is evaluated here;
 *   - IsMinimal is a weighted popcount of each criticality row against the
 *     evidence multiplicities;
 *   - the search is resumable: adc_enum_run returns when the search ends,
 *     when a progress report is due, or when the output buffer is full,
 *     and the next call continues where it stopped.  Frames, slots and
 *     criticality planes live in an EnumSearch owned by the caller's
 *     workspace (adc_enum_new / adc_enum_free).
 *
 * Slot buffers have capacity n_evidences and are allocated per depth on
 * first use; nothing is allocated per node. */

enum { ENUM_DONE = 0, ENUM_PAUSED = 1, ENUM_FULL = 2, ENUM_NOMEM = -1 };

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
    int32_t n_words, n_ev_words;
    /* Most predicates of one evidence: bounds every hit loop's length. */
    int64_t max_k;
    /* Parameters of the current search. */
    int64_t bound, max_dc_size, interval, next_progress;
    int32_t selection;
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
    const size_t words = nw * cap + 3 * nw + new + 3 * k * new + cap;
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
 * workspace's root arrays); 0 when memory runs out. */
intptr_t adc_enum_new(intptr_t ev_p, intptr_t counts_p, intptr_t contains_p,
                      intptr_t group_inv_p, intptr_t full_cand_p, int64_t n_ev,
                      int32_t n_words, int32_t n_ev_words, int64_t n_predicates)
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

/* IsMinimal (Figure 5): S is minimal unless dropping some member passes,
 * and dropping member d un-covers exactly the evidences of its
 * criticality row, so it passes when uncovered + (pairs of that row) <= K. */
static int enum_is_minimal(EnumSearch *s, int64_t uncovered)
{
    s->counters[C_MINIMALITY]++;
    const int64_t slack = s->bound - uncovered;
    for (int64_t d = 0; d < s->n_members; d++) {
        const uint64_t *row = s->crit_rows + d * (int64_t)s->n_ev_words;
        int64_t extra = 0;
        for (int32_t v = 0; v < s->n_ev_words && extra <= slack; v++) {
            uint64_t word = row[v];
            while (word) {
                extra += s->counts[(int64_t)v * 64 + __builtin_ctzll(word)];
                word &= word - 1;
            }
        }
        if (extra <= slack)
            return 0;
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

/* Run (restart != 0) or resume the search.  Each output is one row of
 * `out` (out_rows x out_width int64): uncovered pairs, |S|, then the
 * members of S; out_width must be at least 2 + min(max_dc_size,
 * n_predicates).  counters (C_COUNT int64) receives the search counters
 * and the number of output rows written by this call.  Returns ENUM_DONE,
 * ENUM_PAUSED (progress_interval nodes passed since the last report; 0
 * disables), ENUM_FULL (out has out_rows rows) or ENUM_NOMEM. */
int32_t adc_enum_run(intptr_t search_p, int32_t restart, int64_t bound,
                     int32_t selection, int64_t max_dc_size,
                     int64_t progress_interval, intptr_t out_p,
                     int64_t out_rows, int64_t out_width, intptr_t counters_p)
{
    EnumSearch *s = (EnumSearch *)search_p;
    int64_t *out = (int64_t *)out_p;
    int64_t *c = s->counters;
    const int64_t nw = s->n_words, new = s->n_ev_words, cap = s->n_ev;
    int64_t scalars[4];
    int64_t n_out = 0;
    int32_t status = ENUM_DONE;

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
                        (intptr_t)slot->pairs, 0, (intptr_t)slot->cand_loop,
                        (int32_t)nw, (intptr_t)slot->elements,
                        (intptr_t)slot->covers, (intptr_t)slot->crit,
                        (intptr_t)slot->child_bits, (int32_t)new, f->position,
                        (intptr_t)s->crit_rows, new, s->n_members,
                        (intptr_t)removed, (intptr_t)s->group_inv, nw,
                        (intptr_t)child->ev, cap, (intptr_t)child->cin,
                        (intptr_t)child->pairs, 0, (intptr_t)child->cand_in,
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
            if (f->uncovered <= s->bound) {
                if (enum_is_minimal(s, f->uncovered)) {
                    int64_t *row = out + n_out * out_width;
                    row[0] = f->uncovered;
                    row[1] = s->n_members;
                    for (int64_t i = 0; i < s->n_members; i++)
                        row[2 + i] = s->members[i];
                    n_out++;
                }
                s->depth--;
                if (n_out == out_rows) {
                    status = ENUM_FULL;
                    goto done;
                }
                continue;
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
             * dooms join the dead pairs, and the child drops them. */
            const int64_t will_cover = f->dead + scalars[2];
            if (will_cover > s->bound) {
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
                (intptr_t)slot->pairs, 0, 1, (intptr_t)child->ev, cap,
                (intptr_t)child->cin, (intptr_t)child->pairs, 0);
            memcpy(child->cand_in, slot->cand_loop, (size_t)nw * sizeof(uint64_t));
            memcpy(child->uncov_bits, slot->uncov_bits, (size_t)new * sizeof(uint64_t));
            enum_enter(s, m, f->uncovered, will_cover);
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
