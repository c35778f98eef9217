/* Compiled octagon kernel: the matrix work of each octagon operation.
 *
 * The kernel is a contract of eight entry points, and ``_closure_py.py``
 * is its numpy twin: each function here has a function there of the same
 * name that returns the same matrix, bit for bit (for ``contains``, the
 * same bool vector).  A matrix is a square C-contiguous float64 matrix of
 * even size 2k over k variables, whose entry m[i][j] bounds v_j - v_i (+inf
 * for "no bound"; -inf never appears).  ``tight_close_inplace`` needs a
 * writable matrix; every other entry point only reads its matrices and
 * returns a fresh, writable one or one of its arguments (``contains``, a
 * fresh bool vector).  The caller owns a fresh matrix: it may close it in
 * place, and it makes it read-only when a value keeps it.  A matrix that
 * breaks the contract, and a malformed map, entry list or row array, raise
 * ValueError.
 * ``_build.py`` compiles this file on first import.
 *
 * The binary entry points take two matrices of one size, over the same
 * variables; the caller aligns its operands first, with ``bound`` and no
 * entries.  Only ``bound`` reads a gather map ``pos`` (a sequence of ints,
 * or None), which puts a matrix over other variables: target variable u
 * reads the variable pos[u] of the matrix, or is unconstrained when pos[u]
 * is -1.  None keeps the matrix as it is.  One map both embeds a pack into a
 * larger set of variables and projects it onto a smaller one.
 *
 *   tight_close_inplace(m) -> 0, or 1 when m is unsatisfiable
 *   leq(a, b)              -> every entry of a <= that of b
 *   join(a, b)             -> a itself when b <= a, else a fresh entrywise
 *                             maximum
 *   meet(a, b)             -> a itself when the entrywise minimum equals a,
 *                             else b itself when it equals b, else a fresh
 *                             (unclosed) minimum
 *   widen(a, b)            -> a itself when b <= a, else a fresh matrix of
 *                             the entries of a that b keeps, +inf elsewhere
 *   bound(m, pos, entries) -> a fresh gathered m, then each (i, j, c) of the
 *                             flat entry list sets m[i][j] and m[j^1][i^1]
 *                             to their minimum with c, in order
 *   shift(m, k, c, neg)    -> a fresh m with variable k negated (when neg is
 *                             true), then increased by c; entries above
 *                             EXACT_LIMIT in magnitude become +inf
 *   contains(m, vals, pos) -> a fresh bool vector: whether each row of the
 *                             2-D int64 array vals satisfies every bound of
 *                             m, where column pos[k] of vals holds variable k
 *                             of m; the values read lie within EXACT_LIMIT
 *                             in magnitude, so each difference is exact
 *
 * No entry is ever -0.0: bounds enter as integers, and sums and copies of
 * entries other than -0.0 are never -0.0.  Entries that tie are then equal
 * bit for bit, so the kernels agree whichever of two tied entries they keep.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>

/* _closure_py.BOUND_LIMIT, 2^40: dropping larger bounds keeps every path sum
   of a pack of up to 2^11 variables within 2^52, where float64 is exact */
#define BOUND_LIMIT 1099511627776.0
/* _closure_py.EXACT_LIMIT, 2^52 */
#define EXACT_LIMIT 4503599627370496.0

static int
tight_close(double *m, Py_ssize_t n2)
{
    for (Py_ssize_t i = 0; i < n2 * n2; i++)
        if (fabs(m[i]) > BOUND_LIMIT)
            m[i] = INFINITY;
    for (Py_ssize_t k = 0; k < n2; k++) {
        const double *mk = m + k * n2;
        for (Py_ssize_t i = 0; i < n2; i++) {
            double mik = m[i * n2 + k];
            if (mik == INFINITY)
                continue;
            double *mi = m + i * n2;
            for (Py_ssize_t j = 0; j < n2; j++) {
                double v = mik + mk[j];
                if (v < mi[j])
                    mi[j] = v;
            }
        }
    }
    for (Py_ssize_t i = 0; i < n2; i++) {
        if (m[i * n2 + i] < 0)
            return 1;
        m[i * n2 + i] = 0.0;
    }
    /* m[i][i^1] bounds an even number (twice a variable): round it down */
    for (Py_ssize_t i = 0; i < n2; i++)
        m[i * n2 + (i ^ 1)] = 2.0 * floor(m[i * n2 + (i ^ 1)] / 2.0);
    for (Py_ssize_t i = 0; i < n2; i++)
        if (m[i * n2 + (i ^ 1)] + m[(i ^ 1) * n2 + i] < 0)
            return 1;
    /* strengthening: the m[i][i^1] it reads are even, so updating in place
       never changes them and equals working from a copy */
    for (Py_ssize_t i = 0; i < n2; i++) {
        double hi = floor(m[i * n2 + (i ^ 1)] / 2.0);
        if (hi == INFINITY)
            continue;
        for (Py_ssize_t j = 0; j < n2; j++) {
            double v = hi + floor(m[(j ^ 1) * n2 + j] / 2.0);
            if (v < m[i * n2 + j])
                m[i * n2 + j] = v;
        }
    }
    return 0;
}

/* -- arguments -- */

/* A matrix argument: its buffer, held from a successful get_matrix until
   put_matrix, and its number of variables. */
typedef struct {
    Py_buffer view;
    int held;
    Py_ssize_t k;
} Matrix;

static int
get_matrix(PyObject *obj, Matrix *a, int writable)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, &a->view, flags) < 0) {
        PyErr_Clear();
        PyErr_SetString(PyExc_ValueError, writable
                        ? "m must be a writable, C-contiguous float64 matrix"
                        : "m must be a C-contiguous float64 matrix");
        return -1;
    }
    a->held = 1;
    Py_ssize_t n2 = a->view.ndim == 2 ? a->view.shape[0] : -1;
    if (strcmp(a->view.format, "d") != 0 || n2 < 0 || a->view.shape[1] != n2 || n2 % 2 != 0) {
        PyErr_SetString(PyExc_ValueError, "m must be a square float64 matrix of even size");
        return -1;
    }
    a->k = n2 / 2;
    return 0;
}

static void
put_matrix(Matrix *a)
{
    if (a->held)
        PyBuffer_Release(&a->view);
    a->held = 0;
}

/* The gather map ``obj`` over a matrix of ``src`` variables: stores it in
   *pos (NULL for None, which keeps the matrix as it is; else to be freed
   with PyMem_Free) and returns the number of target variables, or -1. */
static Py_ssize_t
get_pos(PyObject *obj, Py_ssize_t src, Py_ssize_t **pos)
{
    *pos = NULL;
    if (obj == Py_None)
        return src;
    PyObject *seq = PySequence_Fast(obj, "");
    if (seq == NULL) {
        PyErr_Clear();
        PyErr_SetString(PyExc_ValueError, "a gather map must be None or a sequence of ints");
        return -1;
    }
    Py_ssize_t k = PySequence_Fast_GET_SIZE(seq);
    Py_ssize_t *p = PyMem_Malloc((k > 0 ? k : 1) * sizeof *p);
    if (p == NULL) {
        Py_DECREF(seq);
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t u = 0; u < k; u++) {
        p[u] = PyLong_AsSsize_t(PySequence_Fast_GET_ITEM(seq, u));
        if (p[u] < -1 || p[u] >= src || PyErr_Occurred()) {
            PyErr_Clear();
            PyErr_SetString(PyExc_ValueError, "a gather map entry must be -1 or a variable of its matrix");
            PyMem_Free(p);
            Py_DECREF(seq);
            return -1;
        }
    }
    Py_DECREF(seq);
    *pos = p;
    return k;
}

/* Write into ``out`` (2k x 2k) the matrix ``m`` over ``src`` variables
   gathered through ``pos`` (k entries). */
static void
gather(double *out, Py_ssize_t k, const double *m, Py_ssize_t src, const Py_ssize_t *pos)
{
    Py_ssize_t n2 = 2 * k, m2 = 2 * src;
    for (Py_ssize_t i = 0; i < n2; i++) {
        Py_ssize_t pi = pos[i / 2];
        for (Py_ssize_t j = 0; j < n2; j++) {
            Py_ssize_t pj = pos[j / 2];
            out[i * n2 + j] = pi < 0 || pj < 0 ? (i == j ? 0.0 : INFINITY)
                                               : m[(2 * pi + (i & 1)) * m2 + 2 * pj + (j & 1)];
        }
    }
}

/* A fresh n2 x n2 float64 array, its data in *data; NULL on error. */
static PyObject *
new_matrix(Py_ssize_t n2, double **data)
{
    npy_intp dims[2] = {n2, n2};
    PyObject *arr = PyArray_SimpleNew(2, dims, NPY_DOUBLE);
    if (arr != NULL)
        *data = PyArray_DATA((PyArrayObject *)arr);
    return arr;
}

/* The gathered matrix ``obj`` over ``pos`` as a fresh array; the unary
   entry points start from it. */
static PyObject *
gathered_copy(PyObject *obj, PyObject *pos_obj, double **data, Py_ssize_t *n2)
{
    Matrix a = {.held = 0};
    Py_ssize_t *pos = NULL;
    PyObject *out = NULL;
    Py_ssize_t k;
    if (get_matrix(obj, &a, 0) < 0 || (k = get_pos(pos_obj, a.k, &pos)) < 0)
        goto done;
    out = new_matrix(2 * k, data);
    if (out == NULL)
        goto done;
    if (pos == NULL)
        memcpy(*data, a.view.buf, 4 * k * k * sizeof(double));
    else
        gather(*data, k, a.view.buf, a.k, pos);
    *n2 = 2 * k;
done:
    PyMem_Free(pos);
    put_matrix(&a);
    return out;
}

static int
check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t n)
{
    if (nargs == n)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", name, n, nargs);
    return 0;
}

/* Two operands of one size: ``x`` and ``y`` point at their buffers. */
typedef struct {
    Matrix a, b;
    double *x, *y;
    Py_ssize_t k;
} Pair;

static int
get_pair(Pair *p, PyObject *const *args, Py_ssize_t nargs, const char *name)
{
    memset(p, 0, sizeof *p);
    if (!check_nargs(name, nargs, 2))
        return -1;
    if (get_matrix(args[0], &p->a, 0) < 0 || get_matrix(args[1], &p->b, 0) < 0)
        return -1;
    if (p->a.k != p->b.k) {
        PyErr_SetString(PyExc_ValueError, "the operands must have one size");
        return -1;
    }
    p->x = p->a.view.buf;
    p->y = p->b.view.buf;
    p->k = p->a.k;
    return 0;
}

static void
put_pair(Pair *p)
{
    put_matrix(&p->a);
    put_matrix(&p->b);
}

/* -- entry points -- */

static PyObject *
tight_close_inplace(PyObject *module, PyObject *arg)
{
    Matrix a = {.held = 0};
    PyObject *result = NULL;
    if (get_matrix(arg, &a, 1) == 0)
        result = PyLong_FromLong(tight_close(a.view.buf, 2 * a.k));
    put_matrix(&a);
    return result;
}

static PyObject *
leq(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Pair p;
    PyObject *result = NULL;
    if (get_pair(&p, args, nargs, "leq") == 0) {
        int le = 1;
        for (Py_ssize_t i = 0, n = 4 * p.k * p.k; i < n && le; i++)
            le = p.x[i] <= p.y[i];
        result = PyBool_FromLong(le);
    }
    put_pair(&p);
    return result;
}

static PyObject *
join(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Pair p;
    PyObject *result = NULL;
    if (get_pair(&p, args, nargs, "join") < 0)
        goto done;
    Py_ssize_t n = 4 * p.k * p.k;
    int le = 1;
    for (Py_ssize_t i = 0; i < n && le; i++)
        le = p.y[i] <= p.x[i];
    if (le) {
        result = Py_NewRef(args[0]);
        goto done;
    }
    double *out;
    result = new_matrix(2 * p.k, &out);
    if (result != NULL)
        for (Py_ssize_t i = 0; i < n; i++)
            out[i] = p.x[i] > p.y[i] ? p.x[i] : p.y[i];
done:
    put_pair(&p);
    return result;
}

static PyObject *
meet(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Pair p;
    PyObject *result = NULL;
    if (get_pair(&p, args, nargs, "meet") < 0)
        goto done;
    Py_ssize_t n = 4 * p.k * p.k;
    int a_le = 1, b_le = 1;
    for (Py_ssize_t i = 0; i < n && (a_le || b_le); i++) {
        a_le &= p.x[i] <= p.y[i];
        b_le &= p.y[i] <= p.x[i];
    }
    if (a_le || b_le) {
        result = Py_NewRef(args[a_le ? 0 : 1]);
        goto done;
    }
    double *out;
    result = new_matrix(2 * p.k, &out);
    if (result != NULL)
        for (Py_ssize_t i = 0; i < n; i++)
            out[i] = p.x[i] < p.y[i] ? p.x[i] : p.y[i];
done:
    put_pair(&p);
    return result;
}

static PyObject *
widen(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Pair p;
    PyObject *result = NULL;
    if (get_pair(&p, args, nargs, "widen") < 0)
        goto done;
    Py_ssize_t n = 4 * p.k * p.k;
    int stable = 1;
    for (Py_ssize_t i = 0; i < n && stable; i++)
        stable = p.y[i] <= p.x[i];
    if (stable) {
        result = Py_NewRef(args[0]);
        goto done;
    }
    double *out;
    result = new_matrix(2 * p.k, &out);
    if (result != NULL)
        for (Py_ssize_t i = 0; i < n; i++)
            out[i] = p.y[i] <= p.x[i] ? p.x[i] : INFINITY;
done:
    put_pair(&p);
    return result;
}

static PyObject *
bound(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (!check_nargs("bound", nargs, 3))
        return NULL;
    PyObject *seq = PySequence_Fast(args[2], "");
    if (seq == NULL || PySequence_Fast_GET_SIZE(seq) % 3 != 0) {
        PyErr_Clear();
        Py_XDECREF(seq);
        PyErr_SetString(PyExc_ValueError, "entries must be a flat sequence of (i, j, c) triples");
        return NULL;
    }
    double *m;
    Py_ssize_t n2;
    PyObject *result = gathered_copy(args[0], args[1], &m, &n2);
    for (Py_ssize_t t = 0; result != NULL && t < PySequence_Fast_GET_SIZE(seq); t += 3) {
        PyObject **e = PySequence_Fast_ITEMS(seq) + t;
        Py_ssize_t i = PyLong_AsSsize_t(e[0]), j = PyLong_AsSsize_t(e[1]);
        double c = PyFloat_AsDouble(e[2]);
        if (i < 0 || i >= n2 || j < 0 || j >= n2 || PyErr_Occurred()) {
            PyErr_Clear();
            PyErr_SetString(PyExc_ValueError, "an entry must be (i, j, c) with i and j indices of the matrix");
            Py_CLEAR(result);
            break;
        }
        double v = c < m[i * n2 + j] ? c : m[i * n2 + j];
        m[i * n2 + j] = v;
        m[(j ^ 1) * n2 + (i ^ 1)] = v;
    }
    Py_DECREF(seq);
    return result;
}

static PyObject *
shift(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (!check_nargs("shift", nargs, 4))
        return NULL;
    Py_ssize_t k = PyLong_AsSsize_t(args[1]);
    double c = PyFloat_AsDouble(args[2]);
    int neg = PyObject_IsTrue(args[3]);
    if (PyErr_Occurred() || neg < 0) {
        PyErr_Clear();
        PyErr_SetString(PyExc_ValueError, "shift(m, k, c, neg) needs an int k, a number c and a flag neg");
        return NULL;
    }
    double *m;
    Py_ssize_t n2;
    PyObject *result = gathered_copy(args[0], Py_None, &m, &n2);
    if (result == NULL)
        return NULL;
    if (k < 0 || 2 * k >= n2) {
        Py_DECREF(result);
        PyErr_SetString(PyExc_ValueError, "k must be a variable of m");
        return NULL;
    }
    Py_ssize_t p = 2 * k, q = 2 * k + 1;
    if (neg) {
        for (Py_ssize_t j = 0; j < n2; j++) {
            double t = m[p * n2 + j];
            m[p * n2 + j] = m[q * n2 + j];
            m[q * n2 + j] = t;
        }
        for (Py_ssize_t i = 0; i < n2; i++) {
            double t = m[i * n2 + p];
            m[i * n2 + p] = m[i * n2 + q];
            m[i * n2 + q] = t;
        }
    }
    /* the four updates in the numpy kernel's order; every sum is exact */
    for (Py_ssize_t i = 0; i < n2; i++)
        m[i * n2 + p] += c;
    for (Py_ssize_t j = 0; j < n2; j++)
        m[p * n2 + j] -= c;
    for (Py_ssize_t i = 0; i < n2; i++)
        m[i * n2 + q] -= c;
    for (Py_ssize_t j = 0; j < n2; j++)
        m[q * n2 + j] += c;
    m[p * n2 + p] = m[q * n2 + q] = 0.0;
    for (Py_ssize_t i = 0; i < n2 * n2; i++)
        if (fabs(m[i]) > EXACT_LIMIT)
            m[i] = INFINITY;
    return result;
}

static PyObject *
contains(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (!check_nargs("contains", nargs, 3))
        return NULL;
    Matrix a = {.held = 0};
    Py_ssize_t *pos = NULL;
    double *w = NULL;
    PyObject *result = NULL;
    if (get_matrix(args[0], &a, 0) < 0)
        goto done;
    PyArrayObject *vals = (PyArrayObject *)args[1];
    if (!PyArray_Check(args[1]) || PyArray_TYPE(vals) != NPY_INT64 || PyArray_NDIM(vals) != 2
        || !PyArray_ISBEHAVED_RO(vals)) {
        PyErr_SetString(PyExc_ValueError, "vals must be a 2-D int64 array in native byte order");
        goto done;
    }
    Py_ssize_t rows = PyArray_DIM(vals, 0), cols = PyArray_DIM(vals, 1);
    int bad = args[2] == Py_None || get_pos(args[2], cols, &pos) != a.k;
    for (Py_ssize_t u = 0; !bad && u < a.k; u++)
        bad = pos[u] < 0;
    if (bad) {
        PyErr_Clear();
        PyErr_SetString(PyExc_ValueError, "pos must list a column of vals per variable of m");
        goto done;
    }
    Py_ssize_t n2 = 2 * a.k;
    w = PyMem_Malloc((n2 > 0 ? n2 : 1) * sizeof *w);
    if (w == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    npy_intp dims[1] = {rows};
    result = PyArray_SimpleNew(1, dims, NPY_BOOL);
    if (result == NULL)
        goto done;
    npy_bool *out = PyArray_DATA((PyArrayObject *)result);
    const double *m = a.view.buf;
    const char *base = PyArray_BYTES(vals);
    npy_intp rs = PyArray_STRIDE(vals, 0), cs = PyArray_STRIDE(vals, 1);
    for (Py_ssize_t r = 0; r < rows; r++) {
        for (Py_ssize_t u = 0; u < a.k; u++) {
            npy_int64 x = *(const npy_int64 *)(base + r * rs + pos[u] * cs);
            if (x > (npy_int64)EXACT_LIMIT || x < -(npy_int64)EXACT_LIMIT) {
                PyErr_SetString(PyExc_ValueError, "a value of vals lies beyond EXACT_LIMIT");
                Py_CLEAR(result);
                goto done;
            }
            w[2 * u] = (double)x;
            w[2 * u + 1] = -(double)x;
        }
        /* w[j] - w[i] <= m[i][j]; both sides are exact */
        int in = 1;
        for (Py_ssize_t i = 0; i < n2 && in; i++) {
            const double *mi = m + i * n2;
            for (Py_ssize_t j = 0; j < n2; j++)
                if (w[j] - w[i] > mi[j]) {
                    in = 0;
                    break;
                }
        }
        out[r] = (npy_bool)in;
    }
done:
    PyMem_Free(w);
    PyMem_Free(pos);
    put_matrix(&a);
    return result;
}

static PyMethodDef methods[] = {
    {"tight_close_inplace", tight_close_inplace, METH_O,
     "tight_close_inplace(m) -> 0, or 1 when m is unsatisfiable"},
    {"leq", (PyCFunction)(void (*)(void))leq, METH_FASTCALL, "leq(a, b) -> bool"},
    {"join", (PyCFunction)(void (*)(void))join, METH_FASTCALL, "join(a, b) -> a or a fresh maximum"},
    {"meet", (PyCFunction)(void (*)(void))meet, METH_FASTCALL, "meet(a, b) -> a, b or a fresh minimum"},
    {"widen", (PyCFunction)(void (*)(void))widen, METH_FASTCALL, "widen(a, b) -> a or a fresh matrix"},
    {"bound", (PyCFunction)(void (*)(void))bound, METH_FASTCALL, "bound(m, pos, entries) -> fresh matrix"},
    {"shift", (PyCFunction)(void (*)(void))shift, METH_FASTCALL, "shift(m, k, c, neg) -> fresh matrix"},
    {"contains", (PyCFunction)(void (*)(void))contains, METH_FASTCALL,
     "contains(m, vals, pos) -> fresh bool vector"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_closure", .m_doc = "Compiled octagon kernel.",
    .m_size = -1, .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__closure(void)
{
    if (_import_array() < 0)  /* the ImportError propagates, nothing printed */
        return NULL;
    return PyModule_Create(&module);
}
