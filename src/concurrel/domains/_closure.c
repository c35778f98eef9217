/* Compiled tight closure for integer octagon DBMs (the analyzer's hot kernel).
 *
 * Same contract as ``_closure_py.tight_close_inplace``: entries above
 * BOUND_LIMIT in magnitude become +inf, then Floyd-Warshall over every index,
 * then integer tightening and strengthening, in place on a square float64
 * matrix of even size whose entry m[i][j] bounds v_j - v_i (+inf for "no
 * bound"; -inf never appears).  Returns 0, or 1 when the constraints are
 * unsatisfiable (the matrix contents are then unspecified).  Any other matrix
 * raises ValueError.  ``_build.py`` compiles this file on first import.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

/* _closure_py.BOUND_LIMIT, 2^40: dropping larger bounds keeps every path sum
   of a pack of up to 2^11 variables within 2^52, where float64 is exact */
#define BOUND_LIMIT 1099511627776.0

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

static PyObject *
tight_close_inplace(PyObject *module, PyObject *arg)
{
    Py_buffer view;
    if (PyObject_GetBuffer(arg, &view, PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0) {
        PyErr_Clear();
        PyErr_SetString(PyExc_ValueError, "m must be a writable, C-contiguous float64 matrix");
        return NULL;
    }
    PyObject *result = NULL;
    Py_ssize_t n2 = view.ndim == 2 ? view.shape[0] : -1;
    if (strcmp(view.format, "d") != 0 || n2 < 0 || view.shape[1] != n2 || n2 % 2 != 0)
        PyErr_SetString(PyExc_ValueError, "m must be a square float64 matrix of even size");
    else
        result = PyLong_FromLong(tight_close(view.buf, n2));
    PyBuffer_Release(&view);
    return result;
}

static PyMethodDef methods[] = {
    {"tight_close_inplace", tight_close_inplace, METH_O,
     "tight_close_inplace(m) -> 0, or 1 when m is unsatisfiable"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_closure", "Compiled tight closure for integer octagon DBMs.", -1, methods,
};

PyMODINIT_FUNC
PyInit__closure(void)
{
    return PyModule_Create(&module);
}
