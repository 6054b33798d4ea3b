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
 * small numpy dispatches into one pass over the node's arrays.
 */

#include <stdint.h>
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

/* One fused pass over a (i1-i0) x (j1-j0) tile of the ordered-pair matrix.
 *
 * Group g's order category for pair (i, j) is derived from two per-row
 * float64 vectors a and b (rows of the (G, n_rows) planes at stride
 * `row_stride`):
 *   kind 0 (single-tuple): category = (int)a[i]          (b unused)
 *   kind 1 (numeric pair):  sign(a[i] - b[j]) + 1        (LESS/EQUAL/GREATER)
 *   kind 2 (string pair):   a[i] == b[j] ? EQUAL : LESS
 * The pair's evidence words are the OR of lookup[g, category, :] over all
 * groups; `out` is the (n_pairs, n_words) plane, n_pairs = tile area,
 * pair index p = (i - i0) * (j1 - j0) + (j - j0).
 */
void adc_tile_plane(intptr_t kinds_p, int64_t n_groups, intptr_t a_p,
                    intptr_t b_p, int64_t row_stride, intptr_t lookup_p,
                    int32_t n_words, int64_t i0, int64_t i1, int64_t j0,
                    int64_t j1, intptr_t out_p)
{
    const int32_t *kinds = (const int32_t *)kinds_p;
    const double *a = (const double *)a_p;
    const double *b = (const double *)b_p;
    const uint64_t *lookup = (const uint64_t *)lookup_p;
    uint64_t *out = (uint64_t *)out_p;
    int64_t width = j1 - j0;
    for (int64_t i = i0; i < i1; i++) {
        uint64_t *out_row = out + (i - i0) * width * (int64_t)n_words;
        for (int64_t g = 0; g < n_groups; g++) {
            const double *ga = a + g * row_stride;
            const double *gb = b + g * row_stride;
            const uint64_t *glookup = lookup + g * 3 * (int64_t)n_words;
            int32_t kind = kinds[g];
            if (kind == 0) {
                /* Single-tuple: one category for the whole row of pairs. */
                const uint64_t *cat_words =
                    glookup + (int64_t)ga[i] * n_words;
                uint64_t *o = out_row;
                for (int64_t j = j0; j < j1; j++, o += n_words)
                    for (int32_t w = 0; w < n_words; w++)
                        o[w] |= cat_words[w];
            } else if (kind == 1) {
                double left = ga[i];
                uint64_t *o = out_row;
                for (int64_t j = j0; j < j1; j++, o += n_words) {
                    double d = left - gb[j];
                    int64_t cat = (d < 0.0) ? 0 : ((d == 0.0) ? 1 : 2);
                    const uint64_t *cat_words = glookup + cat * n_words;
                    for (int32_t w = 0; w < n_words; w++)
                        o[w] |= cat_words[w];
                }
            } else {
                double left = ga[i];
                uint64_t *o = out_row;
                for (int64_t j = j0; j < j1; j++, o += n_words) {
                    int64_t cat = (left == gb[j]) ? 1 : 0;
                    const uint64_t *cat_words = glookup + cat * n_words;
                    for (int32_t w = 0; w < n_words; w++)
                        o[w] |= cat_words[w];
                }
            }
        }
    }
}

/* Hash-deduplicate the rows of a contiguous (n, w) uint64 plane.
 *
 * `table` is an open-addressing slot->unique-index map of power-of-two
 * size, pre-filled with -1 by the caller.  First-seen unique rows are
 * appended to `uniq`; `inverse[r]` is row r's unique index and `counts[u]`
 * its multiplicity.  Returns the number of unique rows.  Uniques come out
 * in first-seen order — the Python wrapper re-sorts the (small) unique set
 * into the canonical lexicographic order and remaps inverse/counts, so the
 * hash order never leaks out. */
int64_t adc_unique_rows(intptr_t words_p, int64_t n, int64_t w,
                        intptr_t table_p, int64_t table_size,
                        intptr_t uniq_p, intptr_t inverse_p, intptr_t counts_p)
{
    const uint64_t *words = (const uint64_t *)words_p;
    int64_t *table = (int64_t *)table_p;
    uint64_t *uniq = (uint64_t *)uniq_p;
    int64_t *inverse = (int64_t *)inverse_p;
    int64_t *counts = (int64_t *)counts_p;
    const uint64_t mask = (uint64_t)table_size - 1;
    int64_t n_unique = 0;

    for (int64_t r = 0; r < n; r++) {
        const uint64_t *row = words + r * w;
        /* FNV-1a over the row's words. */
        uint64_t h = 1469598103934665603ULL;
        for (int64_t k = 0; k < w; k++) {
            h ^= row[k];
            h *= 1099511628211ULL;
        }
        uint64_t slot = h & mask;
        for (;;) {
            int64_t u = table[slot];
            if (u < 0) {
                table[slot] = n_unique;
                memcpy(uniq + n_unique * w, row, (size_t)w * sizeof(uint64_t));
                counts[n_unique] = 1;
                inverse[r] = n_unique;
                n_unique++;
                break;
            }
            const uint64_t *candidate = uniq + u * w;
            int64_t k = 0;
            while (k < w && candidate[k] == row[k])
                k++;
            if (k == w) {
                counts[u]++;
                inverse[r] = u;
                break;
            }
            slot = (slot + 1) & mask;
        }
    }
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
