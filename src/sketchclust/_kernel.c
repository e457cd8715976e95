/* The sketch bank's compiled loops: key hashing, row-minimum gather,
 * in-order scatter, and the closed form of every squared distance.
 *
 * Built and loaded by sketchclust/native.py; it takes numpy arrays through
 * the buffer protocol and needs no numpy headers. Every function checks
 * each buffer's element type, shape and contiguity, and each component id,
 * slot and bucket against the grid, and raises ValueError before any
 * write; only a distance that is not finite is found while the distances
 * are written. The loops do only integer arithmetic, selections,
 * additions and single IEEE operations, in the order numpy did them, so
 * their results are bit for bit numpy's (and hashlib's for the digests).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
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

/* The buffers one call holds, released together. */
typedef struct {
    Py_buffer view[5];
    int held;
} Held;

static PyObject *
release(Held *h, PyObject *result)
{
    while (h->held)
        PyBuffer_Release(&h->view[--h->held]);
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
key_buckets(PyObject *self, PyObject *args)
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

/* Take the gather's and the scatter's shared buffers as h->view[0..2]:
 * ``cells`` (d+1, k, rows, cols) float64, ``comp`` (N,) and ``buckets``
 * (rows, N) intp, each component id and bucket checked against the grid. */
static int
take_grid(Held *h, PyObject *cells, PyObject *comp, PyObject *buckets, int writable)
{
    Py_buffer *c, *k, *b;
    if (!(c = take(h, cells, "cells", FLOAT64, writable, 4, -1, -1)) ||
        !(k = take(h, comp, "comp", INTP, 0, 1, -1, -1)) ||
        !(b = take(h, buckets, "buckets", INTP, 0, 2, c->shape[2], k->shape[0])))
        return -1;
    if (in_range(k->buf, k->shape[0], c->shape[0], "component") < 0 ||
        in_range(b->buf, b->shape[0] * b->shape[1], c->shape[3], "bucket") < 0)
        return -1;
    return 0;
}

/* row_minima(cells, comp, buckets, m, out): out[i, s] = min over rows r of
 * cells[comp[i], s, r, buckets[r, i]] for the live slots s < m; ``out`` is
 * (N, m) float64. Rows are taken in order and a tie keeps the later row,
 * as numpy's minimum does (which decides the sign of a zero). */
static PyObject *
row_minima(PyObject *self, PyObject *args)
{
    PyObject *cells, *comp, *buckets, *out;
    Py_ssize_t m;
    Held h = {.held = 0};
    if (!PyArg_ParseTuple(args, "OOOnO:row_minima", &cells, &comp, &buckets, &m, &out))
        return NULL;
    if (take_grid(&h, cells, comp, buckets, 0) < 0)
        return release(&h, NULL);
    const Py_ssize_t *shape = h.view[0].shape, slots = shape[1], rows = shape[2], cols = shape[3];
    const Py_ssize_t grid = rows * cols, n = h.view[1].shape[0];
    if (m < 0 || m > slots) {
        PyErr_Format(PyExc_ValueError, "m = %zd is outside 0..%zd", m, slots);
        return release(&h, NULL);
    }
    Py_buffer *o = take(&h, out, "out", FLOAT64, 1, 2, n, m);
    if (!o)
        return release(&h, NULL);
    const double *cell = h.view[0].buf;
    const Py_ssize_t *component = h.view[1].buf, *bucket = h.view[2].buf;
    double *est = o->buf;
    for (Py_ssize_t i = 0; i < n; i++) {
        for (Py_ssize_t s = 0; s < m; s++) {
            const double *at = cell + (component[i] * slots + s) * grid;
            double v = at[bucket[i]];
            for (Py_ssize_t r = 1; r < rows; r++) {
                double x = at[r * cols + bucket[r * n + i]];
                v = (v < x || v != v) ? v : x;
            }
            est[i * m + s] = v;
        }
    }
    return release(&h, Py_NewRef(Py_None));
}

/* scatter_add(cells, slot, comp, buckets, values, fresh): cells[comp[i],
 * slot, r, buckets[r, i]] += values[i], row by row and keys in order within
 * a row, the order ``np.add.at`` adds in; if ``fresh``, the slot's grids of
 * every component are zeroed first. */
static PyObject *
scatter_add(PyObject *self, PyObject *args)
{
    PyObject *cells, *comp, *buckets, *values;
    Py_ssize_t slot;
    int fresh;
    Held h = {.held = 0};
    if (!PyArg_ParseTuple(args, "OnOOOp:scatter_add", &cells, &slot, &comp, &buckets, &values,
                          &fresh))
        return NULL;
    if (take_grid(&h, cells, comp, buckets, 1) < 0)
        return release(&h, NULL);
    const Py_ssize_t *shape = h.view[0].shape, comps = shape[0], slots = shape[1];
    const Py_ssize_t rows = shape[2], cols = shape[3], grid = rows * cols, n = h.view[1].shape[0];
    if (slot < 0 || slot >= slots) {
        PyErr_Format(PyExc_ValueError, "slot %zd is outside 0..%zd", slot, slots - 1);
        return release(&h, NULL);
    }
    Py_buffer *v = take(&h, values, "values", FLOAT64, 0, 1, n, -1);
    if (!v)
        return release(&h, NULL);
    double *cell = h.view[0].buf;
    const Py_ssize_t *component = h.view[1].buf, *bucket = h.view[2].buf;
    const double *mass = v->buf;
    if (fresh) {
        for (Py_ssize_t c = 0; c < comps; c++)
            memset(cell + (c * slots + slot) * grid, 0, (size_t)grid * sizeof(double));
    }
    for (Py_ssize_t r = 0; r < rows; r++) {
        for (Py_ssize_t i = 0; i < n; i++)
            cell[(component[i] * slots + slot) * grid + r * cols + bucket[r * n + i]] += mass[i];
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
graph_distances_sq(PyObject *self, PyObject *args)
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
pair_distances_sq(PyObject *self, PyObject *args)
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

static PyMethodDef methods[] = {
    {"key_buckets", key_buckets, METH_VARARGS, "Each key's BLAKE2b-64 cell in every row."},
    {"row_minima", row_minima, METH_VARARGS, "Each key's row minimum in every live slot."},
    {"scatter_add", scatter_add, METH_VARARGS, "Add each key's mass to its cells in one slot."},
    {"graph_distances_sq", graph_distances_sq, METH_VARARGS,
     "One graph's squared component distances to every live centroid."},
    {"pair_distances_sq", pair_distances_sq, METH_VARARGS,
     "The squared centroid separations of slot pairs."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_kernel", NULL, 0, methods};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    return PyModule_Create(&module);
}
