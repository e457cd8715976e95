/* The compiled loops: the ingest walk (preprocess's canonical form and
 * graph_views' flat view), and the sketch bank's key hashing, cross-product
 * gather, in-order scatter and the closed form of every squared distance.
 *
 * Built and loaded by sketchclust/native.py; it takes numpy arrays through
 * the buffer protocol, makes none, and needs no numpy headers. Every bank
 * function checks each buffer's element type, shape and contiguity, a
 * view's bounds (d+2 ints from 0 to the key count, never decreasing) and
 * each slot and bucket against the grid, and raises ValueError before any
 * write; only a distance that is not finite is found while the distances
 * are written. The loops do only integer arithmetic, selections,
 * comparisons, additions and single IEEE operations, each in a stated
 * order: the order of the Python and numpy code they replaced (hashlib's
 * for the digests), and for a cross product its terms added one by one in
 * view order, so no BLAS kernel decides its bits. A graph's per-component
 * sum of squares, the sketch rows' squares and the refresh's pair products
 * stay in numpy.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

enum kind { FLOAT64, INTP, INT64, UINT64 };
static const char *const KIND_NAMES[] = {"float64", "intp", "int64", "uint64"};

/* Whether a buffer format names one element of the kind: a native code, or
 * a little-endian one on a little-endian host, of the kind's size. */
static int
format_is(const char *format, Py_ssize_t itemsize, enum kind kind)
{
    static const char *const codes[] = {"d", "lqn", "lq", "LQ"};
    static const Py_ssize_t sizes[] = {8, sizeof(Py_ssize_t), 8, 8};
    if (itemsize != sizes[kind] || format == NULL)
        return 0;
    if (*format == '@' || *format == '=' || (*format == '<' && PY_LITTLE_ENDIAN))
        format++;
    return format[0] != '\0' && format[1] == '\0' && strchr(codes[kind], format[0]) != NULL;
}

/* The buffers one call holds and the component ends it read, released
 * together. */
typedef struct {
    Py_buffer view[5];
    int held;
    Py_ssize_t *ends;
} Held;

static PyObject *
release(Held *h, PyObject *result)
{
    while (h->held)
        PyBuffer_Release(&h->view[--h->held]);
    PyMem_Free(h->ends);
    h->ends = NULL;
    return result;
}

/* ``obj``'s buffer as C-contiguous elements of ``kind`` in ``ndim`` axes,
 * the first two of extent ``d0`` and ``d1`` (-1: any), writable if asked;
 * NULL and ValueError on any mismatch. */
static Py_buffer *
take(Held *h, PyObject *obj, const char *name, enum kind kind, int writable, int ndim,
     Py_ssize_t d0, Py_ssize_t d1)
{
    Py_buffer *v = &h->view[h->held];
    if (PyObject_GetBuffer(obj, v, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT |
                                       (writable ? PyBUF_WRITABLE : 0)) < 0) {
        PyErr_Clear();
        PyErr_Format(PyExc_ValueError, "%s is not a C-contiguous%s buffer", name,
                     writable ? " writable" : "");
        return NULL;
    }
    h->held++;
    if (!format_is(v->format, v->itemsize, kind)) {
        PyErr_Format(PyExc_ValueError, "%s holds %zd-byte '%s' items, not %s", name, v->itemsize,
                     v->format ? v->format : "B", KIND_NAMES[kind]);
        return NULL;
    }
    if (ndim >= 0 && v->ndim != ndim) {
        PyErr_Format(PyExc_ValueError, "%s has %d axes, not %d", name, v->ndim, ndim);
        return NULL;
    }
    Py_ssize_t want[2] = {d0, d1};
    for (int axis = 0; axis < ndim && axis < 2; axis++) {
        if (want[axis] >= 0 && v->shape[axis] != want[axis]) {
            PyErr_Format(PyExc_ValueError, "%s has %zd entries along axis %d, not %zd", name,
                         v->shape[axis], axis, want[axis]);
            return NULL;
        }
    }
    return v;
}

/* -1 and ValueError unless each of ``count`` indices lies in 0..end-1. */
static int
in_range(const Py_ssize_t *index, Py_ssize_t count, Py_ssize_t end, const char *name)
{
    for (Py_ssize_t i = 0; i < count; i++) {
        if (index[i] < 0 || index[i] >= end) {
            PyErr_Format(PyExc_ValueError, "%s %zd is outside 0..%zd", name, index[i], end - 1);
            return -1;
        }
    }
    return 0;
}

/* BLAKE2b with an 8-byte digest, no key and no salt (RFC 7693), as
 * hashlib.blake2b(key, digest_size=8) computes it: the digest is the first
 * state word, read as a little-endian 64-bit integer. */
static const uint64_t BLAKE2B_IV[8] = {
    0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL, 0x3c6ef372fe94f82bULL, 0xa54ff53a5f1d36f1ULL,
    0x510e527fade682d1ULL, 0x9b05688c2b3e6c1fULL, 0x1f83d9abfb41bd6bULL, 0x5be0cd19137e2179ULL,
};

static const uint8_t BLAKE2B_SIGMA[12][16] = {
    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
    {14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3},
    {11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4},
    {7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8},
    {9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13},
    {2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9},
    {12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11},
    {13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10},
    {6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5},
    {10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0},
    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
    {14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3},
};

/* The little-endian 64-bit word at ``p``: one load, which a loop over the
 * bytes made about 1.5 times slower per key at -O2. */
static inline uint64_t
load64(const unsigned char *p)
{
    uint64_t x;
    memcpy(&x, p, 8);
#if PY_BIG_ENDIAN
    x = __builtin_bswap64(x);
#endif
    return x;
}

#define ROTR64(x, n) (((x) >> (n)) | ((x) << (64 - (n))))
#define G(a, b, c, d, x, y)                \
    do {                                   \
        v[a] = v[a] + v[b] + (x);          \
        v[d] = ROTR64(v[d] ^ v[a], 32);    \
        v[c] = v[c] + v[d];                \
        v[b] = ROTR64(v[b] ^ v[c], 24);    \
        v[a] = v[a] + v[b] + (y);          \
        v[d] = ROTR64(v[d] ^ v[a], 16);    \
        v[c] = v[c] + v[d];                \
        v[b] = ROTR64(v[b] ^ v[c], 63);    \
    } while (0)

/* Mix one 128-byte block into the state; ``count`` is the bytes hashed so
 * far, this block's included. */
static void
blake2b_compress(uint64_t h[8], const unsigned char *block, uint64_t count, int last)
{
    uint64_t m[16], v[16];
    for (int i = 0; i < 16; i++)
        m[i] = load64(block + 8 * i);
    for (int i = 0; i < 8; i++) {
        v[i] = h[i];
        v[i + 8] = BLAKE2B_IV[i];
    }
    v[12] ^= count;  /* keys are far shorter than 2^64 bytes: the high word stays 0 */
    if (last)
        v[14] = ~v[14];
    for (int r = 0; r < 12; r++) {
        const uint8_t *s = BLAKE2B_SIGMA[r];
        G(0, 4, 8, 12, m[s[0]], m[s[1]]);
        G(1, 5, 9, 13, m[s[2]], m[s[3]]);
        G(2, 6, 10, 14, m[s[4]], m[s[5]]);
        G(3, 7, 11, 15, m[s[6]], m[s[7]]);
        G(0, 5, 10, 15, m[s[8]], m[s[9]]);
        G(1, 6, 11, 12, m[s[10]], m[s[11]]);
        G(2, 7, 8, 13, m[s[12]], m[s[13]]);
        G(3, 4, 9, 14, m[s[14]], m[s[15]]);
    }
    for (int i = 0; i < 8; i++)
        h[i] ^= v[i] ^ v[i + 8];
}

static uint64_t
blake2b64(const unsigned char *data, Py_ssize_t len)
{
    uint64_t h[8];
    memcpy(h, BLAKE2B_IV, sizeof h);
    h[0] ^= 0x01010000 | 8;  /* the parameter block: fanout 1, depth 1, digest length 8 */
    uint64_t count = 0;
    for (; len > 128; data += 128, len -= 128)
        blake2b_compress(h, data, count += 128, 0);
    unsigned char last[128] = {0};
    memcpy(last, data, (size_t)len);
    blake2b_compress(h, last, count + (uint64_t)len, 1);
    return h[0];
}

/* key_buckets(keys, mult, add, cols, out): out[r, i] = ((mult[r] * x_i +
 * add[r]) mod 2^64 >> 32) mod cols, where x_i is the BLAKE2b-64 digest of
 * the i-th key of the sequence ``keys``; ``out`` is (rows, N) intp. A key
 * must be bytes-like, as for hashlib: a str raises TypeError. Every key is
 * digested before ``out`` is written. */
static PyObject *
key_buckets(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *keys, *mult, *add, *out, *seq;
    Py_ssize_t cols;
    Held h = {.held = 0};
    Py_buffer *a, *b, *o;
    if (!PyArg_ParseTuple(args, "OOOnO:key_buckets", &keys, &mult, &add, &cols, &out))
        return NULL;
    if (!(seq = PySequence_Fast(keys, "keys must be a sequence")))
        return NULL;
    const Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    uint64_t *digest = NULL;
    if (!(a = take(&h, mult, "mult", UINT64, 0, 1, -1, -1)) ||
        !(b = take(&h, add, "add", UINT64, 0, 1, a->shape[0], -1)) ||
        !(o = take(&h, out, "out", INTP, 1, 2, a->shape[0], n)))
        goto done;
    if (cols < 1) {
        PyErr_Format(PyExc_ValueError, "cols = %zd is not positive", cols);
        goto done;
    }
    if (!(digest = PyMem_Malloc((size_t)n * sizeof *digest))) {  /* not NULL for n = 0 */
        PyErr_NoMemory();
        goto done;
    }
    PyObject **items = PySequence_Fast_ITEMS(seq);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *key = items[i];
        if (PyBytes_Check(key)) {
            digest[i] = blake2b64((const unsigned char *)PyBytes_AS_STRING(key),
                                  PyBytes_GET_SIZE(key));
            continue;
        }
        if (PyUnicode_Check(key)) {
            PyErr_SetString(PyExc_TypeError, "Strings must be encoded before hashing");
            goto done;
        }
        Py_buffer view;
        if (PyObject_GetBuffer(key, &view, PyBUF_SIMPLE) < 0)
            goto done;
        digest[i] = blake2b64(view.buf, view.len);
        PyBuffer_Release(&view);
    }
    const uint64_t *mul = a->buf, *off = b->buf;
    const Py_ssize_t rows = a->shape[0];
    Py_ssize_t *idx = o->buf;
    for (Py_ssize_t r = 0; r < rows; r++) {
        for (Py_ssize_t i = 0; i < n; i++)
            idx[r * n + i] = (Py_ssize_t)(((mul[r] * digest[i] + off[r]) >> 32) % (uint64_t)cols);
    }
    PyMem_Free(digest);
    Py_DECREF(seq);
    return release(&h, Py_NewRef(Py_None));
done:
    PyMem_Free(digest);
    Py_DECREF(seq);
    return release(&h, NULL);
}

/* Take the gather's and the scatter's shared buffers as h->view[0..1]:
 * ``cells`` (d+1, k, rows, cols) float64 and ``buckets`` (rows, N) intp,
 * each bucket checked against the grid; and a view's ``bounds``, a tuple of
 * d+2 ints from 0 to N, never decreasing, as h->ends. */
static int
take_grid(Held *h, PyObject *cells, PyObject *bounds, PyObject *buckets, int writable)
{
    Py_buffer *c, *b;
    if (!(c = take(h, cells, "cells", FLOAT64, writable, 4, -1, -1)) ||
        !(b = take(h, buckets, "buckets", INTP, 0, 2, c->shape[2], -1)) ||
        in_range(b->buf, b->shape[0] * b->shape[1], c->shape[3], "bucket") < 0)
        return -1;
    const Py_ssize_t comps = c->shape[0], n = b->shape[1];
    if (!PyTuple_Check(bounds) || PyTuple_GET_SIZE(bounds) != comps + 1) {
        PyErr_Format(PyExc_ValueError, "bounds is not a tuple of %zd ends", comps + 1);
        return -1;
    }
    if (!(h->ends = PyMem_Malloc((size_t)(comps + 1) * sizeof *h->ends))) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i <= comps; i++) {
        PyObject *end = PyTuple_GET_ITEM(bounds, i);
        const Py_ssize_t at = PyLong_Check(end) ? PyLong_AsSsize_t(end) : -1;  /* also past range */
        if ((i ? at < h->ends[i - 1] : at != 0) || (i == comps && at != n)) {
            PyErr_Format(PyExc_ValueError, "bounds %R do not rise from 0 to %zd", bounds, n);
            return -1;
        }
        h->ends[i] = at;
    }
    return 0;
}

/* graph_cross(cells, bounds, buckets, values, m, out): out[s, c] = the sum
 * over the keys i of component c (by ``bounds``), in view order from 0.0,
 * of min over rows r of cells[c, s, r, buckets[r, i]], times values[i],
 * for the live slots s < m: one graph's cross products with every live
 * slot, ``out`` (m, d+1) float64. Rows are taken in order and a tie keeps
 * the later row, as numpy's minimum does (which decides the sign of a
 * zero). */
static PyObject *
graph_cross(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *cells, *bounds, *buckets, *values, *out;
    Py_ssize_t m;
    Held h = {.held = 0};
    if (!PyArg_ParseTuple(args, "OOOOnO:graph_cross", &cells, &bounds, &buckets, &values, &m,
                          &out))
        return NULL;
    if (take_grid(&h, cells, bounds, buckets, 0) < 0)
        return release(&h, NULL);
    const Py_ssize_t *shape = h.view[0].shape, comps = shape[0], slots = shape[1];
    const Py_ssize_t rows = shape[2], cols = shape[3], grid = rows * cols, n = h.view[1].shape[1];
    if (m < 0 || m > slots) {
        PyErr_Format(PyExc_ValueError, "m = %zd is outside 0..%zd", m, slots);
        return release(&h, NULL);
    }
    Py_buffer *v, *o;
    if (!(v = take(&h, values, "values", FLOAT64, 0, 1, n, -1)) ||
        !(o = take(&h, out, "out", FLOAT64, 1, 2, m, comps)))
        return release(&h, NULL);
    const double *cell = h.view[0].buf, *mass = v->buf;
    const Py_ssize_t *bucket = h.view[1].buf, *ends = h.ends;
    double *sum = o->buf;
    for (Py_ssize_t s = 0; s < m; s++) {
        for (Py_ssize_t c = 0; c < comps; c++) {
            const double *at = cell + (c * slots + s) * grid;
            double acc = 0.0;
            for (Py_ssize_t i = ends[c]; i < ends[c + 1]; i++) {
                double est = at[bucket[i]];
                for (Py_ssize_t r = 1; r < rows; r++) {
                    double x = at[r * cols + bucket[r * n + i]];
                    est = (est < x || est != est) ? est : x;
                }
                acc += est * mass[i];
            }
            sum[s * comps + c] = acc;
        }
    }
    return release(&h, Py_NewRef(Py_None));
}

/* scatter_add(cells, slot, bounds, buckets, values, fresh): cells[c, slot,
 * r, buckets[r, i]] += values[i], key i lying in component c by
 * ``bounds``, row by row and keys in order within a row, the order
 * ``np.add.at`` adds in; if ``fresh``, the slot's grids of every component
 * are zeroed first. */
static PyObject *
scatter_add(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *cells, *bounds, *buckets, *values;
    Py_ssize_t slot;
    int fresh;
    Held h = {.held = 0};
    if (!PyArg_ParseTuple(args, "OnOOOp:scatter_add", &cells, &slot, &bounds, &buckets, &values,
                          &fresh))
        return NULL;
    if (take_grid(&h, cells, bounds, buckets, 1) < 0)
        return release(&h, NULL);
    const Py_ssize_t *shape = h.view[0].shape, comps = shape[0], slots = shape[1];
    const Py_ssize_t rows = shape[2], cols = shape[3], grid = rows * cols, n = h.view[1].shape[1];
    if (slot < 0 || slot >= slots) {
        PyErr_Format(PyExc_ValueError, "slot %zd is outside 0..%zd", slot, slots - 1);
        return release(&h, NULL);
    }
    Py_buffer *v = take(&h, values, "values", FLOAT64, 0, 1, n, -1);
    if (!v)
        return release(&h, NULL);
    double *cell = h.view[0].buf;
    const Py_ssize_t *bucket = h.view[1].buf, *ends = h.ends;
    const double *mass = v->buf;
    if (fresh) {
        for (Py_ssize_t c = 0; c < comps; c++)
            memset(cell + (c * slots + slot) * grid, 0, (size_t)grid * sizeof(double));
    }
    for (Py_ssize_t r = 0; r < rows; r++) {
        for (Py_ssize_t c = 0; c < comps; c++) {
            double *row = cell + (c * slots + slot) * grid + r * cols;
            for (Py_ssize_t i = ends[c]; i < ends[c + 1]; i++)
                row[bucket[r * n + i]] += mass[i];
        }
    }
    return release(&h, Py_NewRef(Py_None));
}

/* One squared distance, max(a - 2 cross / denom + b, 0), each operation
 * rounded once in numpy's order (2 cross, then / denom, then a - that,
 * then + b); -1 and ValueError if the value before the clamp is not
 * finite: an overflow in any term reaches it as an infinity or NaN, which
 * the clamp would read as 0 or pass on. The clamp gives +0.0 for -0.0, as
 * np.maximum(v, 0.0) does. */
static inline int
closed_form(double a, double cross, double denom, double b, double *out)
{
    double v = a - 2.0 * cross / denom + b;
    if (!isfinite(v)) {
        PyErr_SetString(PyExc_ValueError, "a squared distance is not finite");
        return -1;
    }
    *out = v > 0.0 ? v : 0.0;
    return 0;
}

/* Take the closed forms' shared buffers as h->view[0..2]: the bank's
 * ``self_sq`` (d+1, k) float64 and ``n`` (k,) int64, and ``cross`` (P,
 * d+1) float64, which the distances are written over. */
static int
take_counts(Held *h, PyObject *self_sq, PyObject *n, PyObject *cross)
{
    Py_buffer *s;
    if (!(s = take(h, self_sq, "self_sq", FLOAT64, 0, 2, -1, -1)) ||
        !take(h, n, "n", INT64, 0, 1, s->shape[1], -1) ||
        !take(h, cross, "cross", FLOAT64, 1, 2, -1, s->shape[0]))
        return -1;
    return 0;
}

/* graph_distances_sq(self_sq, n, sq_sum, cross): cross[i, c] becomes
 * max(sq_sum[c] - 2 cross[i, c] / n_i + self_sq[c, i] / (n_i n_i), 0),
 * with n_i = n[i] as a double, for the slots i < P: one graph's squared
 * component distances to the P live centroids. */
static PyObject *
graph_distances_sq(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *self_sq, *n, *sq_sum, *cross;
    Held h = {.held = 0};
    if (!PyArg_ParseTuple(args, "OOOO:graph_distances_sq", &self_sq, &n, &sq_sum, &cross))
        return NULL;
    if (take_counts(&h, self_sq, n, cross) < 0)
        return release(&h, NULL);
    const Py_ssize_t comps = h.view[0].shape[0], k = h.view[0].shape[1];
    const Py_ssize_t slots = h.view[2].shape[0];
    Py_buffer *q = take(&h, sq_sum, "sq_sum", FLOAT64, 0, 1, comps, -1);
    if (!q)
        return release(&h, NULL);
    if (slots > k) {
        PyErr_Format(PyExc_ValueError, "cross holds %zd slots, more than %zd", slots, k);
        return release(&h, NULL);
    }
    const double *own = h.view[0].buf, *a = q->buf;
    const int64_t *count = h.view[1].buf;
    double *out = h.view[2].buf;
    for (Py_ssize_t i = 0; i < slots; i++) {
        double ni = (double)count[i], nn = ni * ni;
        for (Py_ssize_t c = 0; c < comps; c++) {
            if (closed_form(a[c], out[i * comps + c], ni, own[c * k + i] / nn,
                            &out[i * comps + c]) < 0)
                return release(&h, NULL);
        }
    }
    return release(&h, Py_NewRef(Py_None));
}

/* pair_distances_sq(self_sq, n, first, second, cross): cross[p, c] becomes
 * max(o(f, c) - 2 cross[p, c] / (n_f n_s) + o(s, c), 0), with f = first[p],
 * s = second[p] and o(i, c) = self_sq[c, i] / (n_i n_i): the squared
 * separations of the P slot pairs' centroids. */
static PyObject *
pair_distances_sq(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *self_sq, *n, *first, *second, *cross;
    Held h = {.held = 0};
    if (!PyArg_ParseTuple(args, "OOOOO:pair_distances_sq", &self_sq, &n, &first, &second,
                          &cross))
        return NULL;
    if (take_counts(&h, self_sq, n, cross) < 0)
        return release(&h, NULL);
    const Py_ssize_t comps = h.view[0].shape[0], k = h.view[0].shape[1];
    const Py_ssize_t pairs = h.view[2].shape[0];
    Py_buffer *f, *s;
    if (!(f = take(&h, first, "first", INTP, 0, 1, pairs, -1)) ||
        !(s = take(&h, second, "second", INTP, 0, 1, pairs, -1)) ||
        in_range(f->buf, pairs, k, "slot") < 0 || in_range(s->buf, pairs, k, "slot") < 0)
        return release(&h, NULL);
    const double *own = h.view[0].buf;
    const int64_t *count = h.view[1].buf;
    double *out = h.view[2].buf;
    const Py_ssize_t *one = f->buf, *other = s->buf;
    for (Py_ssize_t p = 0; p < pairs; p++) {
        const Py_ssize_t i = one[p], j = other[p];
        double ni = (double)count[i], nj = (double)count[j];
        double nii = ni * ni, njj = nj * nj, nij = ni * nj;
        for (Py_ssize_t c = 0; c < comps; c++) {
            if (closed_form(own[c * k + i] / nii, out[p * comps + c], nij, own[c * k + j] / njj,
                            &out[p * comps + c]) < 0)
                return release(&h, NULL);
        }
    }
    return release(&h, Py_NewRef(Py_None));
}

/* ---- The ingest walk: preprocess's canonical form, graph_views' flat view ----
 *
 * Both walk Python objects, so they raise the errors of the Python code
 * they replaced, and call model's _check_label, _check_value and
 * _check_squares (handed in as ``checks``) for every fault those own. Each
 * reference an entry holds is its own, and a comparison that raises leaves
 * a sort a permutation, so every error path releases what it took. */

static PyObject *SAFE;               /* model._SQUARES_SAFE, 2**480, as a float */
static PyObject *ONE;                /* 1.0: a present categorical id's value */
static PyObject *EDGE_FREQUENCY, *EDGE_FREQUENCIES, *PRESENCE;  /* what the checks name */
static PyObject *ID, *LABEL, *EDGES, *SIDE;                      /* GraphObject's fields */
static const double SQUARES_SAFE = 0x1p480;

/* The model helpers that own the label, mass and square-sum faults. */
typedef struct {
    PyObject *label, *value, *squares;
} Checks;

/* Whether _check_label accepts ``label``: a str, nonempty, without the
 * separator 0x1f, and encodable as UTF-8 (no lone surrogate). */
static int
label_ok(PyObject *label)
{
    if (!PyUnicode_Check(label))
        return 0;
#if PY_VERSION_HEX < 0x030C0000
    if (PyUnicode_READY(label) < 0) {
        PyErr_Clear();
        return 0;
    }
#endif
    const Py_ssize_t n = PyUnicode_GET_LENGTH(label);
    const int kind = PyUnicode_KIND(label);
    const void *data = PyUnicode_DATA(label);
    if (kind == PyUnicode_1BYTE_KIND)
        return n > 0 && memchr(data, 0x1f, (size_t)n) == NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        const Py_UCS4 c = PyUnicode_READ(kind, data, i);
        if (c == 0x1f || (c >= 0xd800 && c <= 0xdfff))
            return 0;
    }
    return n > 0;
}

/* 0 if ``label`` passes; else _check_label(label) raises its ValueError
 * and this returns -1. */
static int
check_label(const Checks *c, PyObject *label)
{
    if (label_ok(label))
        return 0;
    PyObject *r = PyObject_CallOneArg(c->label, label);
    Py_XDECREF(r);
    return r ? 0 : -1;
}

/* A mass as preprocess reads it: a plain float or int in [0, 2**480) as it
 * is, any other through _check_value(value, what), ``what`` being
 * "attribute <id!r> value" if ``attr_id`` is given. */
static int
read_mass(const Checks *c, PyObject *value, PyObject *what, PyObject *attr_id, double *out)
{
    if (PyFloat_CheckExact(value)) {
        *out = PyFloat_AS_DOUBLE(value);
        if (0.0 <= *out && *out < SQUARES_SAFE)
            return 0;
    }
    else if (PyLong_CheckExact(value)) {
        int overflow, below = 1;
        const long long x = PyLong_AsLongLongAndOverflow(value, &overflow);
        if (overflow > 0 && (below = PyObject_RichCompareBool(value, SAFE, Py_LT)) < 0)
            return -1;
        if (overflow >= 0 && x >= 0 && below) {
            *out = PyLong_AsDouble(value);  /* correctly rounded, as 0.0 + value is */
            return 0;
        }
    }
    PyObject *text = attr_id ? PyUnicode_FromFormat("attribute %R value", attr_id)
                             : Py_NewRef(what);
    if (!text)
        return -1;
    PyObject *r = PyObject_CallFunctionObjArgs(c->value, value, text, NULL);
    Py_DECREF(text);
    if (!r)
        return -1;
    *out = PyFloat_AsDouble(r);
    Py_DECREF(r);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* _check_squares(masses, what), both stolen (NULL: an error already set);
 * -1 if it raises. */
static int
check_squares(const Checks *c, PyObject *masses, PyObject *what)
{
    PyObject *r = masses && what ? PyObject_CallFunctionObjArgs(c->squares, masses, what, NULL)
                                 : NULL;
    Py_XDECREF(masses);
    Py_XDECREF(what);
    Py_XDECREF(r);
    return r ? 0 : -1;
}

/* An edge (a, b) or a side id a with its value b (NULL for a shorthand's
 * id, whose mass is its count), and the mass read; references owned. */
typedef struct {
    PyObject *a, *b;
    double mass;
} Entry;

/* -1, 0 or 1 as ``a`` sorts before, with or after ``b``: by code point for
 * two str, by == and then < otherwise (a str subclass's own operators).
 * Once a comparison has raised, *failed is set and every later one gives 0,
 * so a sort leaves a permutation. */
static int
order(PyObject *a, PyObject *b, int *failed)
{
    if (*failed)
        return 0;
    if (PyUnicode_CheckExact(a) && PyUnicode_CheckExact(b)) {
        if (PyUnicode_KIND(a) != PyUnicode_1BYTE_KIND || PyUnicode_KIND(b) != PyUnicode_1BYTE_KIND)
            return PyUnicode_Compare(a, b);
        /* one byte per code point: bytewise order is code point order */
        const Py_ssize_t na = PyUnicode_GET_LENGTH(a), nb = PyUnicode_GET_LENGTH(b);
        const int c = memcmp(PyUnicode_DATA(a), PyUnicode_DATA(b), (size_t)(na < nb ? na : nb));
        return c ? (c < 0 ? -1 : 1) : (na > nb) - (na < nb);
    }
    const int eq = PyObject_RichCompareBool(a, b, Py_EQ);
    const int lt = eq == 0 ? PyObject_RichCompareBool(a, b, Py_LT) : 0;
    if (eq < 0 || lt < 0) {
        *failed = 1;
        return 0;
    }
    return eq ? 0 : lt ? -1 : 1;
}

static int
entry_order(const Entry *x, const Entry *y, int pairs, int *failed)
{
    const int c = order(x->a, y->a, failed);
    return c == 0 && pairs ? order(x->b, y->b, failed) : c;
}

/* Sort ``n`` entries stably by (a, b) if ``pairs``, else by a, with room
 * for n / 2 entries at ``tmp``: the order of Python's sorted() on the
 * (src, dst) tuples or ids, equal keys kept in input order. */
static void
sort_entries(Entry *e, Py_ssize_t n, Entry *tmp, int pairs, int *failed)
{
    if (n <= 12) {
        for (Py_ssize_t i = 1; i < n; i++) {
            const Entry x = e[i];
            Py_ssize_t j = i;
            for (; j > 0 && entry_order(&e[j - 1], &x, pairs, failed) > 0; j--)
                e[j] = e[j - 1];
            e[j] = x;
        }
        return;
    }
    const Py_ssize_t h = n / 2;
    sort_entries(e, h, tmp, pairs, failed);
    sort_entries(e + h, n - h, tmp, pairs, failed);
    memcpy(tmp, e, (size_t)h * sizeof *e);
    Py_ssize_t i = 0, j = h, k = 0;
    while (i < h && j < n)
        e[k++] = entry_order(&e[j], &tmp[i], pairs, failed) < 0 ? e[j++] : tmp[i++];
    while (i < h)
        e[k++] = tmp[i++];
}

/* Room for ``n`` entries and a sort's scratch; NULL and MemoryError. */
static Entry *
new_entries(Py_ssize_t n)
{
    Entry *e = PyMem_Calloc((size_t)(n + n / 2 + 1), sizeof(Entry));
    if (!e)
        PyErr_NoMemory();
    return e;
}

static void
free_entries(Entry *e, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_DECREF(e[i].a);
        Py_XDECREF(e[i].b);
    }
    PyMem_Free(e);
}

/* Read one edge as preprocess's pattern (src, dst[, freq]) does: its mass
 * (None reads as 1), its labels, then its direction. 1 and the edge in
 * *out; 0 for a zero-mass edge, which is dropped; -1 on a fault. */
static int
read_edge(const Checks *c, PyObject *edge, int undirected, Entry *out)
{
    PyObject *items = NULL;
    if (PyType_GetFlags(Py_TYPE(edge)) & Py_TPFLAGS_SEQUENCE) {  /* no str, dict or number */
        if (!(items = PySequence_Fast(edge, "edge")))
            return -1;
        if (PySequence_Fast_GET_SIZE(items) != 2 && PySequence_Fast_GET_SIZE(items) != 3)
            Py_CLEAR(items);
    }
    if (!items) {
        PyErr_Format(PyExc_ValueError, "edges must be (src, dst) or (src, dst, freq), not %R",
                     edge);
        return -1;
    }
    PyObject *src = Py_NewRef(PySequence_Fast_GET_ITEM(items, 0));
    PyObject *dst = Py_NewRef(PySequence_Fast_GET_ITEM(items, 1));
    PyObject *freq = PySequence_Fast_GET_SIZE(items) == 3
                         ? Py_NewRef(PySequence_Fast_GET_ITEM(items, 2)) : NULL;
    Py_DECREF(items);
    double mass = 1.0;
    int status = -1, failed = 0;
    if ((freq && freq != Py_None && read_mass(c, freq, EDGE_FREQUENCY, NULL, &mass) < 0) ||
        check_label(c, src) < 0 || check_label(c, dst) < 0)
        goto done;
    status = 0;
    if (mass == 0.0)
        goto done;
    const int swap = undirected && order(dst, src, &failed) < 0;
    if (failed) {
        status = -1;
        goto done;
    }
    *out = (Entry){swap ? dst : src, swap ? src : dst, mass};
    src = dst = NULL;  /* now the entry's */
    status = 1;
done:
    Py_XDECREF(src);
    Py_XDECREF(dst);
    Py_XDECREF(freq);
    return status;
}

/* The edge list in canonical form: each (src, dst) once, sorted, with its
 * masses summed in input order, as a list of (src, dst, mass) tuples. */
static PyObject *
canonical_edges(const Checks *c, PyObject *edges, int undirected)
{
    const Py_ssize_t count = PySequence_Fast_GET_SIZE(edges);
    Py_ssize_t n = 0, kept = 0;
    PyObject *out = NULL;
    Entry *e = new_entries(count);
    if (!e)
        return NULL;
    for (Py_ssize_t i = 0; i < count && i < PySequence_Fast_GET_SIZE(edges); i++) {
        PyObject *edge = Py_NewRef(PySequence_Fast_GET_ITEM(edges, i));
        const int read = read_edge(c, edge, undirected, &e[n]);
        Py_DECREF(edge);
        if (read < 0)
            goto done;
        n += read;
    }
    int failed = 0;
    sort_entries(e, n, e + count, 1, &failed);
    /* Sum each run of one (src, dst) into its first entry; the rest read -1. */
    for (Py_ssize_t i = 0, first = 0; i < n; i++) {
        if (i > 0 && entry_order(&e[first], &e[i], 1, &failed) == 0) {
            e[first].mass += e[i].mass;
            e[i].mass = -1.0;
        }
        else {
            first = i;
            kept++;
        }
    }
    if (failed || !(out = PyList_New(kept)))
        goto done;
    double total = 0.0;
    for (Py_ssize_t i = 0, k = 0; i < n; i++) {
        if (e[i].mass < 0.0)
            continue;
        total += e[i].mass;
        PyObject *edge = PyTuple_New(3), *mass = PyFloat_FromDouble(e[i].mass);
        if (!edge || !mass) {
            Py_XDECREF(edge);
            Py_XDECREF(mass);
            Py_CLEAR(out);
            goto done;
        }
        PyTuple_SET_ITEM(edge, 0, Py_NewRef(e[i].a));
        PyTuple_SET_ITEM(edge, 1, Py_NewRef(e[i].b));
        PyTuple_SET_ITEM(edge, 2, mass);
        PyList_SET_ITEM(out, k++, edge);
    }
    if (!(total <= SQUARES_SAFE)) {
        PyObject *masses = PyList_New(kept);
        for (Py_ssize_t k = 0; masses && k < kept; k++)
            PyList_SET_ITEM(masses, k, Py_NewRef(PyTuple_GET_ITEM(PyList_GET_ITEM(out, k), 2)));
        if (check_squares(c, masses, Py_NewRef(EDGE_FREQUENCIES)) < 0)
            Py_CLEAR(out);
    }
done:
    free_entries(e, n);
    return out;
}

/* f"{name}={attr_id}": a categorical id's key. */
static PyObject *
categorical_key(PyObject *name, PyObject *attr_id)
{
    PyObject *n = PyObject_Format(name, NULL), *a = n ? PyObject_Format(attr_id, NULL) : NULL;
    PyObject *key = a ? PyUnicode_FromFormat("%U=%U", n, a) : NULL;
    Py_XDECREF(n);
    Py_XDECREF(a);
    return key;
}

/* One side entry's ids with their values, or with NULL for the ids of a
 * shorthand (a list of ids, or one id), each counted; NULL on a fault. */
static Entry *
side_entries(PyObject *name, PyObject *entry, Py_ssize_t *count)
{
    Entry *e;
    Py_ssize_t n = 0;
    if (PyDict_Check(entry)) {
        PyObject *key, *value;
        Py_ssize_t pos = 0;
        if (!(e = new_entries(PyDict_GET_SIZE(entry))))
            return NULL;
        while (PyDict_Next(entry, &pos, &key, &value))
            e[n++] = (Entry){Py_NewRef(key), Py_NewRef(value), 0.0};
    }
    else if (PyUnicode_Check(entry)) {
        if (!(e = new_entries(1)))
            return NULL;
        e[n++] = (Entry){Py_NewRef(entry), NULL, 1.0};
    }
    else if (PyList_Check(entry)) {
        const Py_ssize_t size = PyList_GET_SIZE(entry);
        for (Py_ssize_t i = 0; i < size; i++) {
            if (!PyUnicode_Check(PyList_GET_ITEM(entry, i))) {
                PyErr_Format(PyExc_ValueError, "list items of %R must be strings", name);
                return NULL;
            }
        }
        if (!(e = new_entries(size)))
            return NULL;
        for (; n < size; n++)
            e[n] = (Entry){Py_NewRef(PyList_GET_ITEM(entry, n)), NULL, 1.0};
    }
    else {
        PyErr_Format(PyExc_ValueError, "side entry %R must be an object, list or string", name);
        return NULL;
    }
    *count = n;
    return e;
}

/* One side entry in canonical form, stored as side[name] unless it keeps
 * no id: its ids sorted, a shorthand's counted, each zero mass dropped and
 * a categorical id written "name=id" with value 1. */
static int
canonical_side(const Checks *c, PyObject *name, PyObject *entry, int categorical, PyObject *side)
{
    Py_ssize_t n = 0;
    int failed = 0, status = -1;
    PyObject *cleaned = NULL;
    Entry *e = side_entries(name, entry, &n);
    if (!e)
        return -1;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (check_label(c, e[i].a) < 0)  /* every id is a str before any two compare */
            goto done;
    }
    sort_entries(e, n, e + n, 0, &failed);
    if (n && !e[0].b) {  /* a shorthand: count each id into its first entry; the rest read -1 */
        for (Py_ssize_t i = 1, first = 0; i < n; i++) {
            if (order(e[first].a, e[i].a, &failed) == 0) {
                e[first].mass += 1.0;
                e[i].mass = -1.0;
            }
            else
                first = i;
        }
    }
    if (failed || !(cleaned = PyDict_New()))
        goto done;
    double total = 0.0;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (e[i].b && read_mass(c, e[i].b, PRESENCE, categorical ? NULL : e[i].a, &e[i].mass) < 0)
            goto done;
        if (!(e[i].mass > 0.0))
            continue;
        PyObject *key, *value;
        if (categorical) {
            key = categorical_key(name, e[i].a);
            value = Py_NewRef(ONE);
        }
        else {
            key = Py_NewRef(e[i].a);
            value = e[i].b && PyFloat_CheckExact(e[i].b) ? Py_NewRef(e[i].b)
                                                          : PyFloat_FromDouble(e[i].mass);
        }
        const int set = key && value ? PyDict_SetItem(cleaned, key, value) : -1;
        Py_XDECREF(key);
        Py_XDECREF(value);
        if (set < 0)
            goto done;
        total += categorical ? 1.0 : e[i].mass;
    }
    if (PyDict_GET_SIZE(cleaned)) {
        if (!(total <= SQUARES_SAFE) &&
            check_squares(c, PyDict_Values(cleaned), PyUnicode_FromFormat("side type %R values",
                                                                           name)) < 0)
            goto done;
        if (PyDict_SetItem(side, name, cleaned) < 0)
            goto done;
    }
    status = 0;
done:
    Py_XDECREF(cleaned);
    free_entries(e, n);
    return status;
}

/* canonical_graph(g, directed, categorical, checks): the (edges, side) of
 * preprocess(g, schema), where ``categorical`` maps each declared side
 * type name to whether it is categorical and ``checks`` holds model's
 * (_check_label, _check_value, _check_squares). */
static PyObject *
canonical_graph(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4 || !PyDict_Check(args[2]) || !PyTuple_Check(args[3]) ||
        PyTuple_GET_SIZE(args[3]) != 3) {
        PyErr_SetString(PyExc_TypeError,
                         "canonical_graph(g, directed, categorical: dict, checks: 3-tuple)");
        return NULL;
    }
    const Checks c = {PyTuple_GET_ITEM(args[3], 0), PyTuple_GET_ITEM(args[3], 1),
                      PyTuple_GET_ITEM(args[3], 2)};
    PyObject *g = args[0], *categorical = args[2], *result = NULL;
    PyObject *id = NULL, *label = NULL, *edges = NULL, *side = NULL, *seq = NULL, *out = NULL;
    PyObject *out_side = NULL;
    const int directed = PyObject_IsTrue(args[1]);
    if (directed < 0 || !(id = PyObject_GetAttr(g, ID)) || !(label = PyObject_GetAttr(g, LABEL)) ||
        !(edges = PyObject_GetAttr(g, EDGES)) || !(side = PyObject_GetAttr(g, SIDE)))
        goto done;
    if (!PyUnicode_Check(id) || PyUnicode_GET_LENGTH(id) == 0) {
        PyErr_SetString(PyExc_ValueError, "graph id must be a nonempty string");
        goto done;
    }
    if (label != Py_None && !PyUnicode_Check(label)) {
        PyErr_Format(PyExc_ValueError, "graph label must be a string, not %R", label);
        goto done;
    }
    if (!PyList_Check(edges) && !PyTuple_Check(edges)) {
        PyErr_SetString(PyExc_ValueError, "edges must be a list or tuple");
        goto done;
    }
    if (!PyDict_Check(side)) {
        PyErr_SetString(PyExc_ValueError, "side must be an object keyed by type name");
        goto done;
    }
    if (!(seq = PySequence_Fast(edges, "edges")) ||
        !(out = canonical_edges(&c, seq, !directed)) || !(out_side = PyDict_New()))
        goto done;
    Py_SETREF(side, PyDict_Copy(side));  /* the checks call out: walk a copy */
    PyObject *name, *entry;
    Py_ssize_t pos = 0;
    while (side && PyDict_Next(side, &pos, &name, &entry)) {
        PyObject *kind = PyDict_GetItemWithError(categorical, name);
        if (!kind) {
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_ValueError, "side type %R not declared in schema", name);
            goto done;
        }
        const int is_categorical = PyObject_IsTrue(kind);
        if (is_categorical < 0 || canonical_side(&c, name, entry, is_categorical, out_side) < 0)
            goto done;
    }
    if (side)
        result = PyTuple_Pack(2, out, out_side);
done:
    Py_XDECREF(id);
    Py_XDECREF(label);
    Py_XDECREF(edges);
    Py_XDECREF(side);
    Py_XDECREF(seq);
    Py_XDECREF(out);
    Py_XDECREF(out_side);
    return result;
}

/* The UTF-8 bytes of src + "\x1f" + dst: an edge's key. */
static PyObject *
edge_key(PyObject *src, PyObject *dst)
{
    Py_ssize_t ls, lt;
    const char *s, *t;
    if (!PyUnicode_Check(src) || !PyUnicode_Check(dst)) {
        PyErr_Format(PyExc_TypeError, "edge endpoints must be str, not %.100s and %.100s",
                     Py_TYPE(src)->tp_name, Py_TYPE(dst)->tp_name);
        return NULL;
    }
    if (!(s = PyUnicode_AsUTF8AndSize(src, &ls)) || !(t = PyUnicode_AsUTF8AndSize(dst, &lt)))
        return NULL;
    PyObject *key = PyBytes_FromStringAndSize(NULL, ls + 1 + lt);
    if (key) {
        char *k = PyBytes_AS_STRING(key);
        memcpy(k, s, (size_t)ls);
        k[ls] = 0x1f;
        memcpy(k + ls + 1, t, (size_t)lt);
    }
    return key;
}

/* A mass as a double; a float or int without a call. */
static int
as_double(PyObject *value, double *out)
{
    if (PyFloat_CheckExact(value)) {
        *out = PyFloat_AS_DOUBLE(value);
        return 0;
    }
    Py_INCREF(value);  /* its __float__ may drop it from its container */
    *out = PyFloat_AsDouble(value);
    Py_DECREF(value);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* Write a canonical graph's keys into ``keys`` and masses into ``mass``,
 * component by component as ``ends`` (d + 2 entries) lays them out: each
 * edge (src, dst, mass) of ``edges``, then each side map of ``sides`` (a
 * dict of id to mass, or None) in order. */
static int
write_graph(PyObject *edges, PyObject *sides, const Py_ssize_t *ends, PyObject *keys, double *mass)
{
    for (Py_ssize_t i = 0; i < ends[1]; i++) {
        if (i >= PySequence_Fast_GET_SIZE(edges)) {
            PyErr_SetString(PyExc_RuntimeError, "the edge list changed size");
            return -1;
        }
        PyObject *edge = PySequence_Fast(PySequence_Fast_GET_ITEM(edges, i), "an edge");
        if (!edge)
            return -1;
        PyObject *key = NULL;
        if (PySequence_Fast_GET_SIZE(edge) != 3)
            PyErr_Format(PyExc_ValueError, "an edge is (src, dst, mass), not %zd items",
                         PySequence_Fast_GET_SIZE(edge));
        else if ((key = edge_key(PySequence_Fast_GET_ITEM(edge, 0),
                                 PySequence_Fast_GET_ITEM(edge, 1))))
            PyTuple_SET_ITEM(keys, i, key);
        const int fault = !key || as_double(PySequence_Fast_GET_ITEM(edge, 2), &mass[i]) < 0;
        Py_DECREF(edge);
        if (fault)
            return -1;
    }
    for (Py_ssize_t s = 0; s < PySequence_Fast_GET_SIZE(sides); s++) {
        PyObject *map = PySequence_Fast_GET_ITEM(sides, s), *id, *value;
        Py_ssize_t pos = 0, i = ends[s + 1];
        while (map != Py_None && PyDict_Next(map, &pos, &id, &value)) {
            if (i == ends[s + 2]) {
                PyErr_SetString(PyExc_RuntimeError, "a side map changed size");
                return -1;
            }
            PyObject *key = PyUnicode_Check(id) ? PyUnicode_AsUTF8String(id) : NULL;
            if (!key) {
                if (!PyErr_Occurred())
                    PyErr_Format(PyExc_TypeError, "side ids must be str, not %.100s",
                                 Py_TYPE(id)->tp_name);
                return -1;
            }
            PyTuple_SET_ITEM(keys, i, key);
            if (as_double(value, &mass[i++]) < 0)
                return -1;
        }
        if (i != ends[s + 2]) {
            PyErr_SetString(PyExc_RuntimeError, "a side map changed size");
            return -1;
        }
    }
    return 0;
}

/* A bytes object's data sits past a header of whole words, so its masses are
 * aligned doubles. */
_Static_assert(offsetof(PyBytesObject, ob_sval) % _Alignof(double) == 0, "unaligned bytes data");

/* graph_view(edges, sides): the (keys, values, bounds) of the view of a
 * canonical graph, given its edge list and its side maps in schema order (a
 * dict or None each). The keys become bytes, each edge's the UTF-8 of src +
 * "\x1f" + dst and each id's its own, into one tuple; the masses the native
 * float64 bytes of one new bytes object, which no one can write once it is
 * returned; and ``bounds`` the d+2 component ends from 0 to N. */
static PyObject *
graph_view(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "graph_view(edges, sides) takes 2 arguments");
        return NULL;
    }
    PyObject *keys = NULL, *values = NULL, *bounds = NULL;
    PyObject *edges = NULL, *sides = NULL, *result = NULL;
    Py_ssize_t *ends = NULL;
    if (!(edges = PySequence_Fast(args[0], "a graph's edges must be a sequence")) ||
        !(sides = PySequence_Fast(args[1], "a graph's side maps must be a sequence")))
        goto done;
    const Py_ssize_t comps = 1 + PySequence_Fast_GET_SIZE(sides);
    if (!(ends = PyMem_Malloc((size_t)(comps + 1) * sizeof *ends))) {
        PyErr_NoMemory();
        goto done;
    }
    ends[0] = 0;
    ends[1] = PySequence_Fast_GET_SIZE(edges);
    for (Py_ssize_t s = 0; s + 1 < comps; s++) {
        PyObject *map = PySequence_Fast_GET_ITEM(sides, s);
        if (map != Py_None && !PyDict_Check(map)) {
            PyErr_Format(PyExc_TypeError, "a side map is a dict or None, not %.100s",
                         Py_TYPE(map)->tp_name);
            goto done;
        }
        ends[s + 2] = ends[s + 1] + (map == Py_None ? 0 : PyDict_GET_SIZE(map));
    }
    const Py_ssize_t n = ends[comps];
    if (!(keys = PyTuple_New(n)) ||
        !(values = PyBytes_FromStringAndSize(NULL, n * (Py_ssize_t)sizeof(double))) ||
        write_graph(edges, sides, ends, keys, (double *)PyBytes_AS_STRING(values)) < 0 ||
        !(bounds = PyTuple_New(comps + 1)))
        goto done;
    for (Py_ssize_t c = 0; c <= comps; c++) {
        PyObject *end = PyLong_FromSsize_t(ends[c]);
        if (!end)
            goto done;
        PyTuple_SET_ITEM(bounds, c, end);
    }
    result = PyTuple_Pack(3, keys, values, bounds);
done:
    PyMem_Free(ends);
    Py_XDECREF(edges);
    Py_XDECREF(sides);
    Py_XDECREF(keys);
    Py_XDECREF(values);
    Py_XDECREF(bounds);
    return result;
}

static PyMethodDef methods[] = {
    {"key_buckets", key_buckets, METH_VARARGS, "Each key's BLAKE2b-64 cell in every row."},
    {"graph_cross", graph_cross, METH_VARARGS, "One graph's cross products with every live slot."},
    {"scatter_add", scatter_add, METH_VARARGS, "Add each key's mass to its cells in one slot."},
    {"graph_distances_sq", graph_distances_sq, METH_VARARGS,
     "One graph's squared component distances to every live centroid."},
    {"pair_distances_sq", pair_distances_sq, METH_VARARGS,
     "The squared centroid separations of slot pairs."},
    {"canonical_graph", (PyCFunction)(void (*)(void))canonical_graph, METH_FASTCALL,
     "A graph's canonical edges and side maps, as preprocess returns them."},
    {"graph_view", (PyCFunction)(void (*)(void))graph_view, METH_FASTCALL,
     "A graph's view: its keys, masses and component bounds."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_size = 0,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    SAFE = PyFloat_FromDouble(SQUARES_SAFE);
    ONE = PyFloat_FromDouble(1.0);
    EDGE_FREQUENCY = PyUnicode_InternFromString("edge frequency");
    EDGE_FREQUENCIES = PyUnicode_InternFromString("edge frequencies");
    PRESENCE = PyUnicode_InternFromString("categorical presence");
    ID = PyUnicode_InternFromString("id");
    LABEL = PyUnicode_InternFromString("label");
    EDGES = PyUnicode_InternFromString("edges");
    SIDE = PyUnicode_InternFromString("side");
    if (!SAFE || !ONE || !EDGE_FREQUENCY || !EDGE_FREQUENCIES || !PRESENCE || !ID || !LABEL ||
        !EDGES || !SIDE)
        return NULL;
    return PyModule_Create(&module);
}
