/* Compiled orbit kernel: int64 twin of ``_steppy.Kernel``.
 *
 * The constructor is ``Kernel(zeta, rows, t0, denom, margin, hard_sign,
 * threshold)``, where the pure kernel's is ``Kernel(ctx, rows, denom,
 * hard_sign)``.  The one entry point ``walk`` and its return tuple are the
 * pure kernel's: the signs of the iterates as an array('b'), the on-line
 * iterates, a stop at the first exact return when a target is given, and
 * per class the one nominee nearest the line when ``select`` is true.
 *
 * The walk is in the co-rotating frame of ``_steppy``: v_n = lambda^n W_n,
 * and a step adds or subtracts D * lambda^-r, r = n mod q, to the few
 * entries of W that it touches.  The branch sign is the d-term float sum of
 * W against the sine row rotated by e = r*t0 mod m when it clears
 * margin * sum|W_j|, the allowance derived in the ``stepper._Plan``
 * docstring: with rows from the 64-bit integer nodes, the float sum errs by
 * less than (d + 3) 2^-53 sum|W_j|, and margin = (8d + 128) 2^-53 is more
 * than twice that, also against the float sum of the |W_j| it multiplies.
 * The pure kernel signs with those integer nodes and no float, so its
 * bounds are its own and its signs check this allowance.  Otherwise the
 * exact v_n = zeta^e W_n is built and signed by the same float test on the
 * unrotated row, the exact integer zero test (v_n fixed by conjugation),
 * then the caller's exact ``hard_sign(tuple)`` for the rare ambiguous
 * nonzero sign, whose exceptions propagate.  The float that decides a sign
 * also bounds |Im(v_n)|, which only passes over iterates that cannot be
 * nearest: a class's nominee is replaced by the same three sign tests on
 * the difference of the two.  The walk stops at step n when W_(n+1) equals
 * lambda^-(n+1) times the target, one of the q rotations of the target
 * made at the start of the walk.
 *
 * The caller guarantees (via the threshold handed to the constructor) that
 * one more step, v_n, the zero test and a nominee's difference cannot
 * overflow int64 while max|W_j| stays at or below the threshold.  A step
 * checks the entries it touched; when one grows past it, or the start or
 * target is past it, the walk drops what it has found and returns None, and
 * the caller walks the orbit again in the pure kernel.
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
    PyObject_HEAD
    Py_ssize_t d;
    Py_ssize_t m;    /* powers of zeta, and direction classes */
    Py_ssize_t q;    /* residues: the order of lambda */
    Py_ssize_t t0;   /* lambda = zeta^t0 */
    i64 *block;      /* one allocation holds every table below */
    i64 *zeta;       /* m x d: the integer vector of each power of zeta */
    i64 *move_val;   /* per residue r, the nonzero entries of D * lambda^-r, */
    i64 *move_col;   /* their indices, */
    i64 *move_at;    /* from move_at[r] to move_at[r + 1] */
    double *rows;    /* q x d: the sine row rotated by r*t0 */
    double margin;
    i64 threshold;
    PyObject *hard_sign;
} Kernel;

/* -- conversions ------------------------------------------------------------ */

/* Read exactly n numbers of a Python sequence into ints, or into doubles
 * when ints is NULL. */
static int read_seq(PyObject *seq, Py_ssize_t n, i64 *ints, double *doubles)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence of numbers");
    if (fast == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(fast) != n) {
        PyErr_Format(PyExc_ValueError, "expected %zd entries", n);
        Py_DECREF(fast);
        return -1;
    }
    int rc = 0;
    for (Py_ssize_t j = 0; rc == 0 && j < n; j++) {
        PyObject *x = PySequence_Fast_GET_ITEM(fast, j);
        int failed = ints != NULL ? (ints[j] = PyLong_AsLongLong(x)) == -1
                                  : (doubles[j] = PyFloat_AsDouble(x)) == -1.0;
        if (failed && PyErr_Occurred())
            rc = -1;
    }
    Py_DECREF(fast);
    return rc;
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

/* out = sum(vec_j * zeta^(mult*j + e)): zeta^e * vec for mult = 1, the
 * conjugate of vec for mult = -1 and e = 0. */
static void rotate(const Kernel *k, const i64 *vec, Py_ssize_t mult, Py_ssize_t e, i64 *out)
{
    const Py_ssize_t d = k->d, m = k->m;
    memset(out, 0, (size_t)d * sizeof(i64));
    for (Py_ssize_t j = 0; j < d; j++) {
        if (vec[j] == 0)
            continue;
        const i64 *z = k->zeta + ((mult * j + e) % m + m) % m * d;
        for (Py_ssize_t i = 0; i < d; i++)
            out[i] += vec[j] * z[i];
    }
}

/* The sign of Im(v) when the certified float sum of v against row decides it
 * (*mag > *err), else 0; then |Im(v)| * D is within *err of *mag.  An
 * infinite margin decides nothing, not even for v = 0, where it makes *err
 * NaN. */
static int float_sign(const Kernel *k, const double *row, const i64 *v, double *mag, double *err)
{
    double total = 0.0, absum = 0.0;
    for (Py_ssize_t j = 0; j < k->d; j++) {
        double x = (double)v[j];
        total += x * row[j];
        absum += fabs(x);
    }
    *mag = fabs(total);
    *err = k->margin * absum;
    if (!(*mag > *err))
        return 0;
    return total > 0.0 ? 1 : -1;
}

/* Exact sign of Im(v) into *sign when the float sum did not decide it: the
 * exact zero test (v fixed by conjugation), else hard_sign.  tmp holds d
 * entries.  -1 with an exception set if hard_sign raised. */
static int exact_sign(Kernel *k, const i64 *v, int *sign, i64 *tmp)
{
    rotate(k, v, -1, 0, tmp);
    if (same(tmp, v, k->d)) {
        *sign = 0;
        return 0;
    }
    PyObject *t = vec_new(v, k->d);
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

/* The nomination state of one walk: per class c the bound bnd[c], the
 * index j[c] of the best iterate (-1 while the class has none) and its
 * vector at vec[c*d]. */
typedef struct {
    double *bnd;
    i64 *j;
    i64 *vec;
} Select;

/* Make iterate `index` of sign s, class c, with exact vector v, the class's
 * best as _steppy.Kernel.walk does: when the class has none, or when s Im(v)
 * is below the best's value, decided exactly on the difference of the two
 * (an exact tie keeps the earlier).  hi lowers the class's bound either way.
 * No entry of the difference, or of its conjugate, overflows while max|W_j|
 * is within the threshold.  diff and tmp hold d entries each.  -1 with an
 * exception set if hard_sign raised. */
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
        if ((below = float_sign(k, k->rows, diff, &mag, &err)) == 0
            && exact_sign(k, diff, &below, tmp) < 0)
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

enum { STEPPED = 0, LANDED = 1, OVERFLOWED = 2 };

/* The step from W_n, at residue *r with lambda^n = zeta^*e, on the branch of
 * sign `positive`: W -+= D lambda^-r on the entries that it touches, then the
 * next residue.  OVERFLOWED when a touched entry passes the threshold,
 * LANDED when W is the target of its new residue (if tgt is not NULL). */
static inline int advance(const Kernel *k, i64 *w, Py_ssize_t *r, Py_ssize_t *e, int positive,
                          const i64 *tgt)
{
    const i64 sgn = positive ? -1 : 1, limit = k->threshold;
    int over = 0;
    for (i64 n = k->move_at[*r]; n < k->move_at[*r + 1]; n++) {
        i64 x = w[k->move_col[n]] += sgn * k->move_val[n];
        over |= x > limit || x < -limit;
    }
    if (++*r == k->q)
        *r = 0;
    *e += k->t0;
    *e -= k->m & -(Py_ssize_t)(*e >= k->m);
    if (over)
        return OVERFLOWED;
    return tgt != NULL && same(w, tgt + *r * k->d, k->d) ? LANDED : STEPPED;
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

/* Read the table `seq` of n rows of d numbers into ints, or into doubles
 * when ints is NULL. */
static int read_table(PyObject *seq, Py_ssize_t n, Py_ssize_t d, i64 *ints, double *doubles)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *row = PySequence_GetItem(seq, i);
        int rc = row == NULL ? -1
                 : read_seq(row, d, ints ? ints + i * d : NULL, ints ? NULL : doubles + i * d);
        Py_XDECREF(row);
        if (rc < 0)
            return -1;
    }
    return 0;
}

static int Kernel_init(Kernel *k, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"zeta", "rows", "t0", "denom", "margin", "hard_sign", "threshold",
                             NULL};
    PyObject *zeta, *rows, *hard_sign, *first;
    i64 denom, threshold;
    Py_ssize_t t0, m, q, d;
    double margin;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOnLdOL", kwlist, &zeta, &rows, &t0, &denom,
                                     &margin, &hard_sign, &threshold))
        return -1;
    kernel_free(k);
    if ((m = PySequence_Size(zeta)) < 0 || (q = PySequence_Size(rows)) < 0)
        return -1;
    if (m < 2 || m % 2 || q < 1 || t0 < 0 || t0 >= m) {
        PyErr_SetString(PyExc_ValueError, "need an even m >= 2, q >= 1 and 0 <= t0 < m");
        return -1;
    }
    if ((first = PySequence_GetItem(rows, 0)) == NULL)
        return -1;
    d = PySequence_Size(first);
    Py_DECREF(first);
    if (d < 1) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "need rows of d >= 1 entries");
        return -1;
    }
    /* zeta, then the moves (values, indices, bounds), then the rows */
    k->block = PyMem_Malloc((size_t)(m * d + 2 * q * d + q + 1) * sizeof(i64)
                            + (size_t)(q * d) * sizeof(double));
    if (k->block == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    k->d = d, k->m = m, k->q = q, k->t0 = t0;
    k->zeta = k->block;
    k->move_val = k->zeta + m * d;
    k->move_col = k->move_val + q * d;
    k->move_at = k->move_col + q * d;
    k->rows = (double *)(k->move_at + q + 1);
    k->margin = margin;
    k->threshold = threshold;
    Py_INCREF(hard_sign);
    k->hard_sign = hard_sign;
    if (read_table(zeta, m, d, k->zeta, NULL) < 0 || read_table(rows, q, d, NULL, k->rows) < 0)
        goto fail;
    i64 n = 0;
    for (Py_ssize_t r = 0; r < q; r++) {
        const i64 *step = k->zeta + (m - r * t0 % m) % m * d;  /* lambda^-r */
        k->move_at[r] = n;
        for (Py_ssize_t i = 0; i < d; i++) {
            i64 c = step[i], bound = c ? LLONG_MAX / (c < 0 ? -c : c) : LLONG_MAX;
            if (denom > bound || denom < -bound) {
                PyErr_SetString(PyExc_OverflowError, "denominator too large for int64 steps");
                goto fail;
            }
            if (c != 0) {
                k->move_val[n] = denom * c;
                k->move_col[n++] = i;
            }
        }
    }
    k->move_at[q] = n;
    return 0;
fail:
    kernel_free(k);  /* a kernel whose set-up failed refuses to walk */
    return -1;
}

/* Scratch for W, v and two more vectors, the q targets, then per class a
 * best iterate, its index and a bound. */
static i64 *scratch(const Kernel *k)
{
    if (k->block == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "kernel not initialised");
        return NULL;
    }
    i64 *buf = PyMem_Malloc((size_t)((4 + k->q + k->m) * k->d + k->m) * sizeof(i64)
                            + (size_t)k->m * sizeof(double));
    if (buf == NULL)
        PyErr_NoMemory();
    return buf;
}

enum { CHUNK = 4096 };  /* signs pass through a chunk into the array */

/* A walk in progress: W, the number of iterates signed, their residue and
 * lambda^steps = zeta^e, the float sum of the iterate that stopped the
 * routine steps, and the signs not yet flushed. */
typedef struct {
    i64 *w;
    i64 steps;
    Py_ssize_t r, e;
    double total, absum;
    char chunk[CHUNK];
} Walk;

#ifndef Py_NO_INLINE  /* defined so from Python 3.11 on (GCC and Clang) */
#define Py_NO_INLINE __attribute__((noinline))
#endif

/* Take the routine steps of a walk while fewer than `until` iterates are
 * signed: an iterate is routine when the float decides its sign and, with
 * bounds bnd, it nominates nothing (lo above its class's bound).  chunk[0]
 * holds the sign of iterate `first`.  Returns what the last step returned;
 * an iterate that is not routine leaves its float sum in st.  The loop
 * makes no call and is kept out of line so that its state stays in
 * registers; inlined beside the rest of the walk, whose Python calls need
 * them, it went to the stack. */
Py_NO_INLINE static int routine(const Kernel *k, Walk *st, i64 first, i64 until, const i64 *tgt,
                                const double *bnd)
{
    const Py_ssize_t d = k->d, m = k->m;
    const double margin = k->margin;
    i64 *w = st->w, steps = st->steps;
    Py_ssize_t r = st->r, e = st->e, c;
    int out = STEPPED;
    for (; steps < until; steps++) {
        const double *row = k->rows + r * d;
        double total = 0.0, absum = 0.0;
        for (Py_ssize_t j = 0; j < d; j++) {
            double x = (double)w[j];
            total += x * row[j];
            absum += fabs(x);
        }
        double lo = fabs(total) - margin * absum;
        int positive = total > 0.0;
        c = e + ((m / 2) & -(Py_ssize_t)!positive);  /* its class, without a branch */
        c -= m & -(Py_ssize_t)(c >= m);
        if (!(lo > 0.0) || (bnd != NULL && lo <= bnd[c])) {
            st->total = total, st->absum = absum;
            break;
        }
        st->chunk[steps - first] = positive ? 1 : -1;
        if ((out = advance(k, w, &r, &e, positive, tgt)) != STEPPED) {
            steps++;
            break;
        }
    }
    st->steps = steps, st->r = r, st->e = e;
    return out;
}

/* Sign the iterate that stopped the routine steps, record it as a touch or
 * in sel (if not NULL), and take its step: the loop's float sum signs it
 * when it decided, else v_n = zeta^e W_n does, built into work, which
 * holds 3d entries.  v_n is also built for a nominee.  Returns what the
 * step returned, or -1 with an exception set if hard_sign or a touch
 * failed. */
static int slow_step(Kernel *k, Walk *st, i64 first, const i64 *tgt, PyObject *touches,
                     Select *sel, i64 *work)
{
    const Py_ssize_t d = k->d, m = k->m;
    i64 *v = work, *diff = work + d, *tmp = work + 2 * d;
    double mag = fabs(st->total), err = k->margin * st->absum;
    int s, built = 0;
    if (mag > err) {
        s = st->total > 0.0 ? 1 : -1;
    } else {
        rotate(k, st->w, 1, st->e, v);
        built = 1;
        if ((s = float_sign(k, k->rows, v, &mag, &err)) == 0) {
            mag = 0.0, err = INFINITY;
            if (exact_sign(k, v, &s, tmp) < 0
                || (s == 0 && add_touch(touches, st->steps, v, d) < 0))
                return -1;
        }
    }
    if (s != 0 && sel != NULL) {
        Py_ssize_t c = (st->e + (s < 0 ? m / 2 : 0)) % m;
        if (mag - err <= sel->bnd[c]) {
            if (!built)
                rotate(k, st->w, 1, st->e, v);
            if (nominate(k, sel, c, s, st->steps, v, mag + err, diff, tmp) < 0)
                return -1;
        }
    }
    st->chunk[st->steps++ - first] = (char)s;
    return advance(k, st->w, &st->r, &st->e, s >= 0, tgt);
}

/* signs.frombytes(chunk[:n]). */
static int flush_signs(PyObject *signs, const char *chunk, Py_ssize_t n)
{
    PyObject *r = PyObject_CallMethod(signs, "frombytes", "y#", chunk, n);
    Py_XDECREF(r);
    return r == NULL ? -1 : 0;
}

/* The nominees as _steppy.Kernel.walk returns them; NULL on failure. */
static PyObject *select_new(const Kernel *k, const Select *sel)
{
    PyObject *best = PyList_New(k->m);
    for (Py_ssize_t c = 0; best != NULL && c < k->m; c++) {
        PyObject *b = sel->j[c] < 0 ? Py_NewRef(Py_None)
                      : Py_BuildValue("(LN)", sel->j[c], vec_new(sel->vec + c * k->d, k->d));
        PyList_SET_ITEM(best, c, b);
        if (b == NULL)
            Py_CLEAR(best);
    }
    return best;
}

static PyObject *Kernel_walk(Kernel *k, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"v_start", "budget", "target", "select", NULL};
    PyObject *v_start, *target = Py_None, *signs = NULL, *touches = NULL, *out = NULL;
    Select sel = {NULL, NULL, NULL};
    Walk st;
    i64 budget, first = 0, until, *buf, *tgt = NULL, *v;
    int selecting = 0, step;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OL|Op", kwlist, &v_start, &budget, &target,
                                     &selecting))
        return NULL;
    if ((buf = scratch(k)) == NULL)
        return NULL;
    const Py_ssize_t d = k->d, m = k->m;
    int status = target != Py_None ? STATUS_BUDGET : STATUS_OK;
    st.w = buf, st.steps = 0, st.r = 0, st.e = 0;
    v = buf + d;
    if (read_seq(v_start, d, st.w, NULL) < 0
        || (target != Py_None && read_seq(target, d, v, NULL) < 0))
        goto done;
    if (too_big(k, st.w) || (target != Py_None && too_big(k, v))) {
        out = Py_NewRef(Py_None);
        goto done;
    }
    if (target != Py_None) {  /* W_n = lambda^-r target when v_n = target */
        tgt = buf + 4 * d;
        for (Py_ssize_t r = 0; r < k->q; r++)
            rotate(k, v, 1, (m - r * k->t0 % m) % m, tgt + r * d);
    }
    signs = PyObject_CallFunction(array_type, "s", "b");
    touches = PyList_New(0);
    if (signs == NULL || touches == NULL)
        goto done;
    if (selecting) {
        sel.vec = buf + (4 + k->q) * d;
        sel.j = sel.vec + m * d;
        sel.bnd = (double *)(sel.j + m);
        for (Py_ssize_t c = 0; c < m; c++)
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
        step = routine(k, &st, first, until, tgt, sel.bnd);
        if (step == STEPPED && st.steps < until
            && (step = slow_step(k, &st, first, tgt, touches, sel.bnd ? &sel : NULL, v)) < 0)
            goto done;
        if (step == OVERFLOWED) {
            out = Py_NewRef(Py_None);
            goto done;
        }
        if (step == LANDED) {
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
     "As _steppy.Kernel.walk, or None once W passes the threshold."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "pwrot._stepkernel.Kernel",
    .tp_basicsize = sizeof(Kernel),
    .tp_dealloc = (destructor)Kernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Kernel(zeta, rows, t0, denom, margin, hard_sign, threshold)",
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
    if (PyModule_AddObject(m, "Kernel", (PyObject *)&KernelType) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
