/* The sketch bank's per-key loops, compiled: bucket math, row-minimum
 * gather and in-order scatter.
 *
 * Built and loaded by sketchclust/native.py; it takes numpy arrays through
 * the buffer protocol and needs no numpy headers. Every function checks
 * each buffer's element type, shape and contiguity, and each component id
 * and bucket against the grid, and raises ValueError before any write.
 * The loops do only integer arithmetic, selections and additions, in the
 * order numpy did them, so their results are bit for bit numpy's.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

enum kind { FLOAT64, INTP, UINT64, BYTES };
static const char *const KIND_NAMES[] = {"float64", "intp", "uint64", "bytes"};

/* Whether a buffer format names one element of the kind: a native code, or
 * a little-endian one on a little-endian host, of the kind's size. */
static int
format_is(const char *format, Py_ssize_t itemsize, enum kind kind)
{
    static const char *const codes[] = {"d", "lqn", "LQN", "B"};
    static const Py_ssize_t sizes[] = {8, sizeof(Py_ssize_t), 8, 1};
    if (itemsize != sizes[kind])
        return 0;
    if (format == NULL)
        return kind == BYTES;
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

/* buckets(digests, mult, add, cols, out): out[r, i] = ((mult[r] * x_i +
 * add[r]) mod 2^64 >> 32) mod cols, where x_i is the i-th little-endian
 * 64-bit word of ``digests``; ``out`` is (rows, N) intp. */
static PyObject *
buckets(PyObject *self, PyObject *args)
{
    PyObject *digests, *mult, *add, *out;
    Py_ssize_t cols;
    Held h = {.held = 0};
    Py_buffer *d, *a, *b, *o;
    if (!PyArg_ParseTuple(args, "OOOnO:buckets", &digests, &mult, &add, &cols, &out))
        return NULL;
    if (!(d = take(&h, digests, "digests", BYTES, 0, -1, -1, -1)) ||
        !(a = take(&h, mult, "mult", UINT64, 0, 1, -1, -1)) ||
        !(b = take(&h, add, "add", UINT64, 0, 1, a->shape[0], -1)) ||
        !(o = take(&h, out, "out", INTP, 1, 2, a->shape[0], d->len / 8)))
        return release(&h, NULL);
    if (d->len % 8 || cols < 1) {
        PyErr_Format(PyExc_ValueError, "need whole 8-byte digests and cols >= 1, not %zd bytes "
                     "and cols = %zd", d->len, cols);
        return release(&h, NULL);
    }
    const unsigned char *bytes = d->buf;
    const uint64_t *mul = a->buf, *off = b->buf;
    Py_ssize_t rows = a->shape[0], n = d->len / 8, *idx = o->buf;
    for (Py_ssize_t i = 0; i < n; i++) {
        uint64_t x = 0;
        for (int j = 7; j >= 0; j--)
            x = (x << 8) | bytes[8 * i + j];
        for (Py_ssize_t r = 0; r < rows; r++)
            idx[r * n + i] = (Py_ssize_t)(((mul[r] * x + off[r]) >> 32) % (uint64_t)cols);
    }
    return release(&h, Py_NewRef(Py_None));
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

static PyMethodDef methods[] = {
    {"buckets", buckets, METH_VARARGS, "Multiply-shift digests into (rows, N) cells."},
    {"row_minima", row_minima, METH_VARARGS, "Each key's row minimum in every live slot."},
    {"scatter_add", scatter_add, METH_VARARGS, "Add each key's mass to its cells in one slot."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_kernel", NULL, 0, methods};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    return PyModule_Create(&module);
}
