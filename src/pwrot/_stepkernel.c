/* Compiled orbit kernel: int64 twin of ``_steppy.Kernel``.
 *
 * Same constructor, one entry point ``walk`` and return tuple as the pure
 * kernel: the signs of the iterates as an array('b'), the on-line iterates,
 * and a stop at the first exact return when a target is given.  A
 * step is v -> M v -+ D*L on int64 vectors; the branch sign comes from the
 * same certified float fast path, then the exact integer zero test (v fixed
 * by the conjugation matrix K), then the caller's exact ``hard_sign(tuple)``
 * for the rare ambiguous nonzero sign, whose exceptions propagate.
 *
 * The caller guarantees (via the threshold handed to the constructor) that
 * one more step, and the zero test, cannot overflow int64 while max|v_j|
 * stays at or below the threshold; when the walk grows past it the kernel
 * returns STATUS_OVERFLOW with its current state so the pure kernel can
 * resume exactly there.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <math.h>
#include <string.h>

enum { STATUS_OK = 0, STATUS_BUDGET = 1, STATUS_OVERFLOW = 2, TOUCH_CAP = 100000 };

typedef long long i64;

static PyObject *array_type;  /* array.array, which holds the signs */

typedef struct {
    PyObject_HEAD
    Py_ssize_t d;
    i64 *m_val;      /* nonzero entries of M (multiplication by lambda), by row */
    i64 *m_col;      /* their columns */
    i64 *m_end;      /* row i of M ends at m_val[m_end[i]] */
    i64 *mat_k;      /* d*d, row-major: complex conjugation */
    i64 *off_plus;   /* -D*L, the + branch */
    i64 *off_minus;  /* +D*L, the - branch */
    double *sines;
    double margin;
    i64 threshold;
    PyObject *hard_sign;
} Kernel;

/* -- conversions ------------------------------------------------------------ */

/* Read exactly n ints of a Python sequence into out. */
static int read_ints(PyObject *seq, i64 *out, Py_ssize_t n)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence of ints");
    if (fast == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(fast) != n) {
        PyErr_Format(PyExc_ValueError, "expected %zd entries", n);
        Py_DECREF(fast);
        return -1;
    }
    for (Py_ssize_t j = 0; j < n; j++) {
        out[j] = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(fast, j));
        if (out[j] == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
    }
    Py_DECREF(fast);
    return 0;
}

/* Read a d x d matrix given as a sequence of d rows. */
static int read_matrix(PyObject *rows, i64 *out, Py_ssize_t d)
{
    for (Py_ssize_t i = 0; i < d; i++) {
        PyObject *row = PySequence_GetItem(rows, i);
        int rc = row ? read_ints(row, out + i * d, d) : -1;
        Py_XDECREF(row);
        if (rc < 0)
            return -1;
    }
    return 0;
}

/* v as a new tuple of ints, or as a new list with as_list. */
static PyObject *vec_new(const i64 *v, Py_ssize_t d, int as_list)
{
    PyObject *seq = as_list ? PyList_New(d) : PyTuple_New(d);
    for (Py_ssize_t j = 0; seq != NULL && j < d; j++) {
        PyObject *x = PyLong_FromLongLong(v[j]);
        if (x == NULL)
            Py_CLEAR(seq);
        else if (as_list)
            PyList_SET_ITEM(seq, j, x);
        else
            PyTuple_SET_ITEM(seq, j, x);
    }
    return seq;
}

/* touches.append((index, tuple(v))) while fewer than TOUCH_CAP are recorded. */
static int add_touch(PyObject *touches, i64 index, const i64 *v, Py_ssize_t d)
{
    if (PyList_GET_SIZE(touches) >= TOUCH_CAP)
        return 0;
    PyObject *pair = Py_BuildValue("(LN)", index, vec_new(v, d, 0));
    if (pair == NULL)
        return -1;
    int rc = PyList_Append(touches, pair);
    Py_DECREF(pair);
    return rc;
}

/* -- the walk --------------------------------------------------------------- */

/* Exact sign of Im(v) into *sign; -1 with an exception set if hard_sign raised. */
static int kernel_sign(Kernel *k, const i64 *v, int *sign)
{
    const Py_ssize_t d = k->d;
    double total = 0.0, absum = 0.0;
    for (Py_ssize_t j = 0; j < d; j++) {
        double x = (double)v[j];
        total += x * k->sines[j];
        absum += fabs(x);
    }
    if (fabs(total) > k->margin * absum) {
        *sign = total > 0.0 ? 1 : -1;
        return 0;
    }
    /* exact zero test: v fixed by conjugation */
    for (Py_ssize_t i = 0; i < d; i++) {
        const i64 *row = k->mat_k + i * d;
        i64 acc = 0;
        for (Py_ssize_t j = 0; j < d; j++)
            acc += row[j] * v[j];
        if (acc != v[i]) {
            PyObject *t = vec_new(v, d, 0);
            PyObject *r = t ? PyObject_CallOneArg(k->hard_sign, t) : NULL;
            Py_XDECREF(t);
            if (r == NULL)
                return -1;
            long s = PyLong_AsLong(r);
            Py_DECREF(r);
            if (s == -1 && PyErr_Occurred())
                return -1;
            *sign = (int)s;
            return 0;
        }
    }
    *sign = 0;
    return 0;
}

static void kernel_step(const Kernel *k, const i64 *v, i64 *w, int positive)
{
    const Py_ssize_t d = k->d;
    const i64 *off = positive ? k->off_plus : k->off_minus;
    i64 n = 0;
    for (Py_ssize_t i = 0; i < d; i++) {
        i64 acc = off[i];
        for (; n < k->m_end[i]; n++)
            acc += k->m_val[n] * v[k->m_col[n]];
        w[i] = acc;
    }
}

static int too_big(const Kernel *k, const i64 *v)
{
    for (Py_ssize_t j = 0; j < k->d; j++)
        if (v[j] > k->threshold || v[j] < -k->threshold)
            return 1;
    return 0;
}

/* -- the Python type -------------------------------------------------------- */

static void kernel_free(Kernel *k)
{
    PyMem_Free(k->m_val);  /* one block holds every table */
    k->m_val = NULL;
    Py_CLEAR(k->hard_sign);
}

static void Kernel_dealloc(Kernel *k)
{
    kernel_free(k);
    Py_TYPE(k)->tp_free((PyObject *)k);
}

static int Kernel_init(Kernel *k, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"rows_m", "rows_k", "lvec", "denom", "sines", "margin",
                             "hard_sign", "threshold", NULL};
    PyObject *rows_m, *rows_k, *lvec, *sines, *hard_sign;
    i64 denom, threshold, n = 0;
    double margin;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOLOdOL", kwlist, &rows_m, &rows_k, &lvec,
                                     &denom, &sines, &margin, &hard_sign, &threshold))
        return -1;
    kernel_free(k);
    if ((sines = PySequence_Fast(sines, "expected a sequence of floats")) == NULL)
        return -1;
    const Py_ssize_t d = PySequence_Fast_GET_SIZE(sines);
    /* m_val, m_col, m_end, mat_k, off_plus, off_minus, then the sines */
    k->m_val = PyMem_Malloc((size_t)d * (size_t)(3 * d + 3) * sizeof(i64) + (size_t)d * sizeof(double));
    if (k->m_val == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    k->d = d;
    k->m_col = k->m_val + d * d;
    k->m_end = k->m_col + d * d;
    k->mat_k = k->m_end + d;
    k->off_plus = k->mat_k + d * d;
    k->off_minus = k->off_plus + d;
    k->sines = (double *)(k->off_minus + d);
    k->margin = margin;
    k->threshold = threshold;
    Py_INCREF(hard_sign);
    k->hard_sign = hard_sign;
    if (read_matrix(rows_m, k->m_val, d) < 0 || read_matrix(rows_k, k->mat_k, d) < 0
        || read_ints(lvec, k->off_minus, d) < 0)
        goto fail;
    for (Py_ssize_t i = 0; i < d * d; i++) {  /* compact M in place to its nonzero entries */
        if (k->m_val[i] != 0) {
            k->m_val[n] = k->m_val[i];
            k->m_col[n++] = i % d;
        }
        if (i % d == d - 1)
            k->m_end[i / d] = n;
    }
    for (Py_ssize_t i = 0; i < d; i++) {
        i64 c = k->off_minus[i], bound = c ? LLONG_MAX / (c < 0 ? -c : c) : LLONG_MAX;
        if (denom > bound || denom < -bound) {
            PyErr_SetString(PyExc_OverflowError, "denominator too large for int64 offsets");
            goto fail;
        }
        k->off_minus[i] = denom * c;
        k->off_plus[i] = -denom * c;
        k->sines[i] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(sines, i));
        if (k->sines[i] == -1.0 && PyErr_Occurred())
            goto fail;
    }
    Py_DECREF(sines);
    return 0;
fail:
    Py_DECREF(sines);
    kernel_free(k);  /* a kernel whose set-up failed refuses to walk */
    return -1;
}

/* Scratch for the iterate, the next one and a target, the iterate read in. */
static i64 *scratch(const Kernel *k, PyObject *v_start)
{
    if (k->m_val == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "kernel not initialised");
        return NULL;
    }
    i64 *buf = PyMem_Malloc(3 * (size_t)k->d * sizeof(i64));
    if (buf == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    if (read_ints(v_start, buf, k->d) < 0) {
        PyMem_Free(buf);
        return NULL;
    }
    return buf;
}

/* signs.frombytes(chunk[:*n]), then *n = 0. */
static int flush_signs(PyObject *signs, const char *chunk, Py_ssize_t *n)
{
    PyObject *r = PyObject_CallMethod(signs, "frombytes", "y#", chunk, *n);
    *n = 0;
    Py_XDECREF(r);
    return r == NULL ? -1 : 0;
}

static PyObject *Kernel_walk(Kernel *k, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"v_start", "budget", "target", NULL};
    PyObject *v_start, *target = Py_None, *signs, *touches, *out = NULL;
    i64 budget, steps, *buf, *v, *w, *tgt, *t;
    char chunk[4096];  /* signs pass through it into the array, a chunk at a time */
    Py_ssize_t nchunk = 0;
    int s;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OL|O", kwlist, &v_start, &budget, &target))
        return NULL;
    const Py_ssize_t d = k->d;
    const int has_target = target != Py_None;
    int status = has_target ? STATUS_BUDGET : STATUS_OK;
    if ((buf = scratch(k, v_start)) == NULL)
        return NULL;
    v = buf, w = buf + d, tgt = buf + 2 * d;
    signs = PyObject_CallFunction(array_type, "s", "b");
    touches = PyList_New(0);
    if (signs == NULL || touches == NULL || (has_target && read_ints(target, tgt, d) < 0))
        goto done;
    for (steps = 0; steps < budget; steps++) {
        if (too_big(k, v)) {
            status = STATUS_OVERFLOW;
            break;
        }
        if (kernel_sign(k, v, &s) < 0 || (s == 0 && add_touch(touches, steps, v, d) < 0))
            goto done;
        chunk[nchunk++] = (char)s;
        if (nchunk == (Py_ssize_t)sizeof chunk && flush_signs(signs, chunk, &nchunk) < 0)
            goto done;
        kernel_step(k, v, w, s >= 0);
        t = v, v = w, w = t;
        if (has_target && memcmp(v, tgt, (size_t)d * sizeof(i64)) == 0) {
            status = STATUS_OK;
            break;
        }
    }
    if (flush_signs(signs, chunk, &nchunk) < 0)
        goto done;
    out = Py_BuildValue("(iNNN)", status, signs, touches, vec_new(v, d, 1));  /* steals both */
    signs = touches = NULL;
done:
    Py_XDECREF(signs);
    Py_XDECREF(touches);
    PyMem_Free(buf);
    return out;
}

static PyMethodDef Kernel_methods[] = {
    {"walk", (PyCFunction)(void (*)(void))Kernel_walk, METH_VARARGS | METH_KEYWORDS,
     "As _steppy.Kernel.walk, and STATUS_OVERFLOW past the threshold."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "pwrot._stepkernel.Kernel",
    .tp_basicsize = sizeof(Kernel),
    .tp_dealloc = (destructor)Kernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Kernel(rows_m, rows_k, lvec, denom, sines, margin, hard_sign, threshold)",
    .tp_methods = Kernel_methods,
    .tp_init = (initproc)Kernel_init,
    .tp_new = PyType_GenericNew,
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_stepkernel",
    .m_doc = "Compiled int64 orbit kernel.",
    .m_size = -1,
};

PyMODINIT_FUNC PyInit__stepkernel(void)
{
    if (PyType_Ready(&KernelType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&module);
    if (m == NULL)
        return NULL;
    PyObject *arr = PyImport_ImportModule("array");
    array_type = arr ? PyObject_GetAttrString(arr, "array") : NULL;
    Py_XDECREF(arr);
    if (array_type == NULL) {
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&KernelType);
    if (PyModule_AddObject(m, "Kernel", (PyObject *)&KernelType) < 0
        || PyModule_AddStringConstant(m, "IMPL", "compiled") < 0
        || PyModule_AddIntMacro(m, STATUS_OK) < 0 || PyModule_AddIntMacro(m, STATUS_BUDGET) < 0
        || PyModule_AddIntMacro(m, STATUS_OVERFLOW) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
