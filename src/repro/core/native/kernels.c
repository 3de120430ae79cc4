/*
 * Native bulk kernels for the paper apps (cutcp, tpacf, sgemm, mri-q).
 *
 * Every function reproduces one NumPy bulk expression of
 * repro/apps/<app>/kernel.py bit for bit.  The rules that make that hold
 * by construction:
 *
 *   - only IEEE basic operations (+ - * /) and sqrt, all correctly
 *     rounded, evaluated in the association order of the NumPy
 *     expression they replace;
 *   - built with -ffp-contract=off (no fused multiply-add) and without
 *     -ffast-math (no re-association, no reciprocal tricks);
 *   - reductions are NumPy's np.add.reduce: 0.0 + pairwise(a, n), with
 *     8 accumulators for n <= 128 and a split at n/2 rounded down to a
 *     multiple of 8 (numpy/_core/src/umath/loops_utils.h.src);
 *   - transcendentals (cos, sin, arccos) are NOT here: NumPy may run
 *     vendor SIMD code for them, so they stay in NumPy between calls.
 *
 * All arrays are C-contiguous float64 / int64; the Python side compacts
 * anything else before a pointer crosses the boundary.
 */
#include <math.h>
#include <stdint.h>

/* NumPy's pairwise sum of a[i] * b[i]; b = ones gives the plain sum. */
static double pairwise_dot(const double *a, const double *b, int64_t n)
{
    if (n < 8) {
        double res = 0.;
        for (int64_t i = 0; i < n; i++)
            res += a[i] * b[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j] * b[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j] * b[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i] * b[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_dot(a, b, n2) + pairwise_dot(a + n2, b + n2, n - n2);
}

/* sgemm: out[i] = alpha * np.sum(us[i] * vs[i]) over k-long rows. */
void row_dots(const double *us, const double *vs, int64_t n, int64_t k,
              double alpha, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = alpha * (0.0 + pairwise_dot(us + i * k, vs + i * k, k));
}

/* mri-q: phase[i, j] = two_pi * (kx[j]*xs[i] + ky[j]*ys[i] + kz[j]*zs[i]). */
void mriq_phase(const double *kx, const double *ky, const double *kz,
                int64_t k, const double *xs, const double *ys,
                const double *zs, int64_t n, double two_pi, double *phase)
{
    for (int64_t i = 0; i < n; i++) {
        const double x = xs[i], y = ys[i], z = zs[i];
        double *row = phase + i * k;
        for (int64_t j = 0; j < k; j++)
            row[j] = two_pi * ((kx[j] * x + ky[j] * y) + kz[j] * z);
    }
}

/* mri-q: out[i] = np.sum(cos[i] * mag) + 1j * np.sum(sin[i] * mag),
 * written as interleaved (re, im) pairs of a complex128 array. */
void mriq_sums(const double *cos_, const double *sin_, const double *mag,
               int64_t n, int64_t k, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        out[2 * i] = 0.0 + pairwise_dot(cos_ + i * k, mag, k);
        out[2 * i + 1] = 0.0 + pairwise_dot(sin_ + i * k, mag, k);
    }
}

/* np.clip(x, -1.0, 1.0): NaN propagates, -0.0 and the bounds pass. */
static inline double clip_unit(double x)
{
    if (x != x)
        return x;
    const double y = x > -1.0 ? x : -1.0;
    return y < 1.0 ? y : 1.0;
}

static inline double pair_cos(const double *u, const double *v)
{
    return (v[0] * u[0] + v[1] * u[1]) + v[2] * u[2];
}

/* tpacf: clipped cosines of every (us row, other row) pair, row-major. */
void tpacf_cos_cross(const double *other, int64_t m, const double *us,
                     int64_t rows, double *out)
{
    for (int64_t r = 0; r < rows; r++)
        for (int64_t j = 0; j < m; j++)
            *out++ = clip_unit(pair_cos(us + 3 * r, other + 3 * j));
}

/* tpacf: clipped cosines of us row r against rand rows j > i_arr[r]. */
void tpacf_cos_self(const double *rand, int64_t n, const double *us,
                    const int64_t *i_arr, int64_t rows, double *out)
{
    for (int64_t r = 0; r < rows; r++) {
        int64_t j = i_arr[r] + 1;
        for (j = j > 0 ? j : 0; j < n; j++)
            *out++ = clip_unit(pair_cos(us + 3 * r, rand + 3 * j));
    }
}

/* tpacf: np.minimum(nbins - 1, (nbins * ang / pi).astype(np.int64)).
 * Out-of-range and NaN convert to INT64_MIN, as NumPy's cast does on
 * x86-64 (the load-time probe disables this library where it does not). */
void tpacf_bins(const double *ang, int64_t n, int64_t nbins, double pi,
                int64_t *out)
{
    const double fb = (double)nbins;
    for (int64_t i = 0; i < n; i++) {
        const double t = fb * ang[i] / pi;
        const int64_t b = (t > -9223372036854775808.0 &&
                           t < 9223372036854775808.0)
                              ? (int64_t)t
                              : INT64_MIN;
        out[i] = b < nbins - 1 ? b : nbins - 1;
    }
}

/* cutcp: the padded-box loop over each atom's [lo, hi] box (z, y, x).
 * With flat == NULL only lengths[a] (points inside the cutoff sphere)
 * is computed, so the caller can allocate the outputs exactly. */
int64_t cutcp_boxes(const double *atoms, int64_t m, int64_t stride,
                    const int64_t *lo, const int64_t *hi, int64_t ny,
                    int64_t nx, double spacing, double c2, int64_t *flat,
                    double *pot, int64_t *lengths)
{
    int64_t n = 0;
    for (int64_t a = 0; a < m; a++) {
        const double *atom = atoms + a * stride;
        const double az = atom[0], ay = atom[1], ax = atom[2], q = atom[3];
        const int64_t *l = lo + 3 * a, *h = hi + 3 * a;
        const int64_t start = n;
        for (int64_t z = l[0]; z <= h[0]; z++) {
            const double dz = spacing * (double)z - az;
            const double dz2 = dz * dz;
            for (int64_t y = l[1]; y <= h[1]; y++) {
                const double dy = spacing * (double)y - ay;
                const double dzy = dz2 + dy * dy;
                for (int64_t x = l[2]; x <= h[2]; x++) {
                    const double dx = spacing * (double)x - ax;
                    const double r2 = dzy + dx * dx;
                    if (!(r2 < c2 && r2 > 0.0))
                        continue;
                    if (flat) {
                        const double w = 1.0 - r2 / c2;
                        flat[n] = (z * ny + y) * nx + x;
                        pot[n] = q * (1.0 / sqrt(r2)) * (w * w);
                    }
                    n++;
                }
            }
        }
        lengths[a] = n - start;
    }
    return n;
}
