/* Compiled orbit kernel: int64 twin of ``_steppy.Kernel``.
 *
 * Same constructor, one entry point ``walk`` and return tuple as the pure
 * kernel: the signs of the iterates as an array('b'), the on-line iterates,
 * a stop at the first exact return when a target is given, and per class
 * the one nominee nearest the line when ``select`` is true.  A step is
 * v -> M v -+ D*L on int64 vectors; the branch sign comes from the same
 * certified float fast path, then the exact integer zero test (v fixed by the
 * conjugation matrix K), then the caller's exact ``hard_sign(tuple)`` for the
 * rare ambiguous nonzero sign, whose exceptions propagate.  The float sum
 * that decides a sign also bounds |Im(v)|, which only passes over iterates
 * that cannot be nearest: a class's nominee is replaced by the same three
 * sign tests on the difference of the two.
 *
 * The caller guarantees (via the threshold handed to the constructor) that
 * one more step, and the zero test, cannot overflow int64 while max|v_j|
 * stays at or below the threshold; when an iterate grows past it the walk
 * drops what it has found and returns None, and the caller walks the orbit
 * again in the pure kernel.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <math.h>
#include <string.h>

enum { STATUS_OK = 0, STATUS_BUDGET = 1, TOUCH_CAP = 100000 };

typedef long long i64;

static PyObject *array_type;  /* array.array, which holds the signs */

typedef struct {
    i64 *val;        /* nonzero entries, by row */
    i64 *col;        /* their columns */
    i64 *end;        /* row i ends at val[end[i]] */
} Sparse;

typedef struct {
    PyObject_HEAD
    Py_ssize_t d;
    i64 *block;      /* one allocation holds every table below */
    Sparse mul;      /* M: multiplication by lambda */
    Sparse conj;     /* K: complex conjugation */
    i64 *off_plus;   /* -D*L, the + branch */
    i64 *off_minus;  /* +D*L, the - branch */
    double *sines;
    double margin;
    Py_ssize_t m;    /* direction classes */
    Py_ssize_t t0;   /* lambda = zeta^t0 */
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

/* Read a d x d matrix given as a sequence of d rows, keeping its nonzero
 * entries. */
static int read_sparse(PyObject *rows, Sparse *a, Py_ssize_t d)
{
    i64 n = 0;
    for (Py_ssize_t i = 0; i < d; i++) {
        PyObject *row = PySequence_GetItem(rows, i);
        int rc = row ? read_ints(row, a->val + n, d) : -1;
        Py_XDECREF(row);
        if (rc < 0)
            return -1;
        for (Py_ssize_t j = 0, start = n; j < d; j++) {
            if (a->val[start + j] != 0) {
                a->val[n] = a->val[start + j];
                a->col[n++] = j;
            }
        }
        a->end[i] = n;
    }
    return 0;
}

/* v as a new tuple of ints. */
static PyObject *vec_new(const i64 *v, Py_ssize_t d)
{
    PyObject *seq = PyTuple_New(d);
    for (Py_ssize_t j = 0; seq != NULL && j < d; j++) {
        PyObject *x = PyLong_FromLongLong(v[j]);
        if (x == NULL)
            Py_CLEAR(seq);
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
    PyObject *pair = Py_BuildValue("(LN)", index, vec_new(v, d));
    if (pair == NULL)
        return -1;
    int rc = PyList_Append(touches, pair);
    Py_DECREF(pair);
    return rc;
}

/* -- the walk --------------------------------------------------------------- */

static int same(const i64 *a, const i64 *b, Py_ssize_t d)
{
    for (Py_ssize_t j = 0; j < d; j++)
        if (a[j] != b[j])
            return 0;
    return 1;
}

static int too_big(const Kernel *k, const i64 *v)
{
    for (Py_ssize_t j = 0; j < k->d; j++)
        if (v[j] > k->threshold || v[j] < -k->threshold)
            return 1;
    return 0;
}

/* The sign of Im(v) when the certified float sum decides it (*mag > *err),
 * else 0; then |Im(v)| * D is within *err of *mag.  An infinite margin
 * decides nothing, not even for v = 0, where it makes *err NaN. */
static int float_sign(const Kernel *k, const i64 *v, double *mag, double *err)
{
    double total = 0.0, absum = 0.0;
    for (Py_ssize_t j = 0; j < k->d; j++) {
        double x = (double)v[j];
        total += x * k->sines[j];
        absum += fabs(x);
    }
    *mag = fabs(total);
    *err = k->margin * absum;
    if (!(*mag > *err))
        return 0;
    return total > 0.0 ? 1 : -1;
}

/* w = A v. */
static void sparse_apply(const Sparse *a, Py_ssize_t d, const i64 *v, i64 *w)
{
    i64 n = 0;
    for (Py_ssize_t i = 0; i < d; i++) {
        i64 acc = 0;
        for (; n < a->end[i]; n++)
            acc += a->val[n] * v[a->col[n]];
        w[i] = acc;
    }
}

/* Exact sign of Im(v) into *sign when the float sum did not decide it: the
 * exact zero test (v fixed by conjugation), else hard_sign.  tmp holds d
 * entries.  -1 with an exception set if hard_sign raised. */
static int exact_sign(Kernel *k, const i64 *v, int *sign, i64 *tmp)
{
    const Py_ssize_t d = k->d;
    sparse_apply(&k->conj, d, v, tmp);
    for (Py_ssize_t i = 0; i < d; i++) {
        if (tmp[i] != v[i]) {
            PyObject *t = vec_new(v, d);
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

/* The nomination state of one walk: per class c the bound bnd[c], the
 * index j[c] of the best iterate (-1 while the class has none) and its
 * vector at vec[c*d]. */
typedef struct {
    double *bnd;
    i64 *j;
    i64 *vec;
} Select;

/* Make iterate `index` of sign s, class c, the class's best as
 * _steppy.Kernel.walk does: when the class has none, or when s Im(v) is below
 * the best's value, decided exactly on the difference of the two (an exact
 * tie keeps the earlier).  hi lowers the class's bound either way.  No entry
 * of the difference, or of K times it, overflows while max|v_j| is within
 * the threshold.  diff and tmp hold d entries each.  -1 with an exception
 * set if hard_sign raised. */
static int nominate(Kernel *k, Select *sel, Py_ssize_t c, int s, i64 index, const i64 *v,
                    double hi, i64 *diff, i64 *tmp)
{
    const Py_ssize_t d = k->d;
    i64 *best = sel->vec + c * d;
    int below = -1;
    double mag, err;
    if (sel->j[c] >= 0) {
        int sb = k->t0 * (sel->j[c] % k->m) % k->m == c ? 1 : -1;
        for (Py_ssize_t i = 0; i < d; i++)
            diff[i] = s * v[i] - sb * best[i];
        if ((below = float_sign(k, diff, &mag, &err)) == 0 && exact_sign(k, diff, &below, tmp) < 0)
            return -1;
    }
    if (below < 0) {
        sel->j[c] = index;
        memcpy(best, v, (size_t)d * sizeof(i64));
    }
    if (hi < sel->bnd[c])
        sel->bnd[c] = hi;
    return 0;
}

static void kernel_step(const Kernel *k, const i64 *v, i64 *w, int positive)
{
    const Py_ssize_t d = k->d;
    const i64 *off = positive ? k->off_plus : k->off_minus;
    const i64 *val = k->mul.val, *col = k->mul.col, *end = k->mul.end;
    i64 n = 0;
    for (Py_ssize_t i = 0; i < d; i++) {
        i64 acc = off[i];
        for (; n < end[i]; n++)
            acc += val[n] * v[col[n]];
        w[i] = acc;
    }
}

/* -- the Python type -------------------------------------------------------- */

static void kernel_free(Kernel *k)
{
    PyMem_Free(k->block);
    k->block = NULL;
    Py_CLEAR(k->hard_sign);
}

static void Kernel_dealloc(Kernel *k)
{
    kernel_free(k);
    Py_TYPE(k)->tp_free((PyObject *)k);
}

static int Kernel_init(Kernel *k, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"mat_m", "mat_k", "lvec", "denom", "sines", "margin",
                             "hard_sign", "m", "t0", "threshold", NULL};
    PyObject *mat_m, *mat_k, *lvec, *sines, *hard_sign;
    i64 denom, threshold;
    Py_ssize_t m, t0;
    double margin;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOLOdOnnL", kwlist, &mat_m, &mat_k, &lvec,
                                     &denom, &sines, &margin, &hard_sign, &m, &t0, &threshold))
        return -1;
    kernel_free(k);
    if (m < 2 || m % 2 || t0 < 0 || t0 >= m) {
        PyErr_SetString(PyExc_ValueError, "need an even m >= 2 and 0 <= t0 < m");
        return -1;
    }
    k->m = m;
    k->t0 = t0;
    if ((sines = PySequence_Fast(sines, "expected a sequence of floats")) == NULL)
        return -1;
    const Py_ssize_t d = PySequence_Fast_GET_SIZE(sines);
    /* M and K (values, columns, row ends), off_plus, off_minus, then the sines */
    k->block = PyMem_Malloc((size_t)d * (size_t)(4 * d + 4) * sizeof(i64) + (size_t)d * sizeof(double));
    if (k->block == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    k->d = d;
    k->mul = (Sparse){k->block, k->block + d * d, k->block + 2 * d * d};
    k->conj = (Sparse){k->mul.end + d, k->mul.end + d + d * d, k->mul.end + d + 2 * d * d};
    k->off_plus = k->conj.end + d;
    k->off_minus = k->off_plus + d;
    k->sines = (double *)(k->off_minus + d);
    k->margin = margin;
    k->threshold = threshold;
    Py_INCREF(hard_sign);
    k->hard_sign = hard_sign;
    if (read_sparse(mat_m, &k->mul, d) < 0 || read_sparse(mat_k, &k->conj, d) < 0
        || read_ints(lvec, k->off_minus, d) < 0)
        goto fail;
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

/* Scratch for the iterate, the next one and a target (the iterate read in),
 * two more vectors, then per class a best iterate, its index and a bound. */
static i64 *scratch(const Kernel *k, PyObject *v_start)
{
    if (k->block == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "kernel not initialised");
        return NULL;
    }
    i64 *buf = PyMem_Malloc((size_t)((5 + k->m) * k->d + k->m) * sizeof(i64)
                            + (size_t)k->m * sizeof(double));
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

enum { CHUNK = 4096 };  /* signs pass through a chunk into the array */

/* A walk in progress: the iterate v, room w for the next one, the number of
 * iterates signed, lambda^steps = zeta^e, and the signs not yet flushed. */
typedef struct {
    i64 *v, *w;
    i64 steps;
    Py_ssize_t e;
    char chunk[CHUNK];
} Walk;

/* Take the routine steps of a walk while fewer than `until` iterates are
 * signed: an iterate is routine when it is within the threshold, the float
 * decides its sign and, with bounds bnd, it nominates nothing (lo above its
 * class's bound).  chunk[0] holds the sign of iterate `first`.  Returns 1
 * when a step lands on tgt (if not NULL).  The loop makes no call and is
 * kept out of line so that its state stays in registers; inlined beside the
 * rest of the walk, whose Python calls need them, it went to the stack. */
Py_NO_INLINE static int routine(const Kernel *k, Walk *st, i64 first, i64 until, const i64 *tgt,
                                const double *bnd)
{
    const Py_ssize_t d = k->d, m = k->m, t0 = k->t0;
    i64 *v = st->v, *w = st->w, *t, steps = st->steps;
    Py_ssize_t e = st->e, c;
    int hit = 0;
    for (; steps < until && !too_big(k, v); steps++) {
        double total = 0.0, absum = 0.0;
        for (Py_ssize_t j = 0; j < d; j++) {
            double x = (double)v[j];
            total += x * k->sines[j];
            absum += fabs(x);
        }
        double lo = fabs(total) - k->margin * absum;
        int positive = total > 0.0;
        c = e + ((m / 2) & -(Py_ssize_t)!positive);  /* its class, without a branch */
        c -= m & -(Py_ssize_t)(c >= m);
        if (!(lo > 0.0) || (bnd != NULL && lo <= bnd[c]))
            break;
        st->chunk[steps - first] = positive ? 1 : -1;
        kernel_step(k, v, w, positive);
        t = v, v = w, w = t;
        e += t0;
        e -= m & -(Py_ssize_t)(e >= m);
        if (tgt != NULL && same(v, tgt, d)) {
            hit = 1;
            steps++;
            break;
        }
    }
    st->v = v, st->w = w, st->steps = steps, st->e = e;
    return hit;
}

/* signs.frombytes(chunk[:n]). */
static int flush_signs(PyObject *signs, const char *chunk, Py_ssize_t n)
{
    PyObject *r = PyObject_CallMethod(signs, "frombytes", "y#", chunk, n);
    Py_XDECREF(r);
    return r == NULL ? -1 : 0;
}

/* (bounds, best) as _steppy.Kernel.walk returns them; NULL on failure. */
static PyObject *select_new(const Kernel *k, const Select *sel)
{
    PyObject *bounds = PyList_New(k->m), *best = PyList_New(k->m);
    for (Py_ssize_t c = 0; bounds != NULL && best != NULL && c < k->m; c++) {
        PyObject *x = PyFloat_FromDouble(sel->bnd[c]);
        PyObject *b = sel->j[c] < 0 ? Py_NewRef(Py_None)
                      : Py_BuildValue("(LN)", sel->j[c], vec_new(sel->vec + c * k->d, k->d));
        PyList_SET_ITEM(bounds, c, x);
        PyList_SET_ITEM(best, c, b);
        if (x == NULL || b == NULL)
            Py_CLEAR(bounds);
    }
    return Py_BuildValue("(NN)", bounds, best);  /* steals both, also on failure */
}

static PyObject *Kernel_walk(Kernel *k, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"v_start", "budget", "target", "select", NULL};
    PyObject *v_start, *target = Py_None, *signs, *touches, *out = NULL;
    Select sel = {NULL, NULL, NULL};
    Walk st;
    i64 budget, first = 0, until, *buf, *tgt = NULL, *t, *diff, *tmp;
    double mag, err;
    Py_ssize_t c;
    int s, selecting = 0;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OL|Op", kwlist, &v_start, &budget, &target,
                                     &selecting))
        return NULL;
    const Py_ssize_t d = k->d, m = k->m;
    int status = target != Py_None ? STATUS_BUDGET : STATUS_OK;
    if ((buf = scratch(k, v_start)) == NULL)
        return NULL;
    st.v = buf, st.w = buf + d, st.steps = 0, st.e = 0;
    diff = buf + 3 * d, tmp = buf + 4 * d;
    if (target != Py_None)
        tgt = buf + 2 * d;
    signs = PyObject_CallFunction(array_type, "s", "b");
    touches = PyList_New(0);
    if (signs == NULL || touches == NULL || (tgt != NULL && read_ints(target, tgt, d) < 0))
        goto done;
    if (selecting) {
        sel.vec = buf + 5 * d;
        sel.j = sel.vec + m * d;
        sel.bnd = (double *)(sel.j + m);
        for (c = 0; c < m; c++)
            sel.j[c] = -1, sel.bnd[c] = INFINITY;
    }
    for (;;) {  /* the chunk holds the signs of iterates first .. steps - 1 */
        if (st.steps == first + CHUNK) {
            if (flush_signs(signs, st.chunk, CHUNK) < 0)
                goto done;
            first = st.steps;
        }
        if (st.steps >= budget)
            break;
        until = budget < first + CHUNK ? budget : first + CHUNK;
        if (routine(k, &st, first, until, tgt, sel.bnd)) {
            status = STATUS_OK;
            break;
        }
        if (st.steps == until)
            continue;
        /* one iterate that is not routine */
        if (too_big(k, st.v)) {
            out = Py_NewRef(Py_None);
            goto done;
        }
        if ((s = float_sign(k, st.v, &mag, &err)) == 0) {
            mag = 0.0, err = INFINITY;
            if (exact_sign(k, st.v, &s, diff) < 0
                || (s == 0 && add_touch(touches, st.steps, st.v, d) < 0))
                goto done;
        }
        if (s != 0 && selecting) {
            c = (st.e + (s < 0 ? m / 2 : 0)) % m;
            if (mag - err <= sel.bnd[c]
                && nominate(k, &sel, c, s, st.steps, st.v, mag + err, diff, tmp) < 0)
                goto done;
        }
        st.chunk[st.steps++ - first] = (char)s;
        kernel_step(k, st.v, st.w, s >= 0);
        t = st.v, st.v = st.w, st.w = t;
        st.e = (st.e + k->t0) % m;
        if (tgt != NULL && same(st.v, tgt, d)) {
            status = STATUS_OK;
            break;
        }
    }
    if (flush_signs(signs, st.chunk, st.steps - first) < 0)
        goto done;
    /* steals the three, also on failure */
    out = Py_BuildValue("(iNNN)", status, signs, touches,
                        selecting ? select_new(k, &sel) : Py_NewRef(Py_None));
    signs = touches = NULL;
done:
    Py_XDECREF(signs);
    Py_XDECREF(touches);
    PyMem_Free(buf);
    return out;
}

static PyMethodDef Kernel_methods[] = {
    {"walk", (PyCFunction)(void (*)(void))Kernel_walk, METH_VARARGS | METH_KEYWORDS,
     "As _steppy.Kernel.walk, or None once an iterate passes the threshold."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "pwrot._stepkernel.Kernel",
    .tp_basicsize = sizeof(Kernel),
    .tp_dealloc = (destructor)Kernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Kernel(mat_m, mat_k, lvec, denom, sines, margin, hard_sign, m, t0, threshold)",
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
        || PyModule_AddIntMacro(m, STATUS_OK) < 0 || PyModule_AddIntMacro(m, STATUS_BUDGET) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
