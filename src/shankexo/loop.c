/* The 1 kHz controller-cable loop of `shankexo.controller.Controller.run`,
   one call a stretch of ticks with no gait event inside, and the
   dual-Gaussian profile it tracks, which the stride report's time-based
   comparator evaluates too (`shankexo.profile.eval_time_profile_array`).

   `shankexo.kernel` builds this file at import with -O2 -ffp-contract=off
   and never -ffast-math, so each double operation below is the IEEE
   operation of the Python expression it stands for, in the same order, and
   no multiply-add is fused: the rows and the state have the bits the
   per-tick reference (`tests/scalar_reference.py`) gives, NaN, the
   infinities and -0.0 included. exp is libm's, the function math.exp
   calls. `a < b ? a : b` is Python's `a if a < b else b`, and so min(a, b)
   only where neither is NaN. */

#include <math.h>
#include <stddef.h>

/* math.radians(x) is x * rad, the quotient CPython's math module takes
   (Py_MATH_PI / 180.0). */
static const double rad = 3.14159265358979323846 / 180.0;

/* The tiers of the loop body, in the order of controller._STANCE to
   controller._IDLE. */
enum { STANCE, PI, PROBE, ABORT, PRETIGHTEN, IDLE };

/* The reasons of the safety abort, in the order of controller._NON_FINITE
   to controller._RESIDUAL. */
enum { NON_FINITE, LIMIT, RESIDUAL };

/* The slots of the float64 vector s, in the order controller.Controller.run
   fills and reads them: the stretch's constants, with its profile (the
   fields of profile.GaussianParams, in their order) and its first tick's
   tier and mode code; the loop state, read before the stretch and written
   back after it, the tendon model's rest length included; and the ticks
   of the engagement, the baseline confirmation and the abort (-1 where
   none), with the engage tick's raw migration estimate and the reading and
   model force the abort saw, for Python's state flags and log lines. */
enum {
    /* constants */
    R, K_ALL, KP, KI, KD, MAP_M, MAP_B, IC, CEILING, LIM, PRETIGHTEN_FORCE,
    PRETIGHTEN_RATE, DT, ALPHA, VM, STIFFNESS, POS_REF, AMP, MU, SIGMA1,
    SIGMA2, THETA_FC, THETA_FO, MIGRATION_TOLERANCE, RESIDUAL_MAX,
    RESIDUAL_TICKS, TARGET, SWING, TIGHTEN_GAIN, PROBE_RATE, PROBE_MARGIN,
    ENGAGE_FORCE, TAIL_FORCE, TAIL_RATE, RELEASE_SLACK, SILENT_CODE,
    ABORT_CODE, TIER, CODE,
    /* state */
    F_MEAS, DF, V_FB, E_INT, F_SWING_MAX, RELEASE, MOTOR_V, L_CABLE, OVER,
    BASELINE_C, DELTA_L1,
    /* decisions */
    ENGAGE_AT, MIGRATION, CONFIRM_AT, ABORT_AT, ABORT_REASON, ABORT_F,
    ABORT_L, ABORT_RATE, ABORT_POS, ABORT_MODEL,
    SLOTS
};

/* Where s holds the loop state and the decisions, and its length: the
   layout `shankexo.kernel` reads. */
const ptrdiff_t shankexo_layout[] = {F_MEAS, ENGAGE_AT, SLOTS};

struct profile {
    double amp, mu, sigma1, sigma2, theta_fc, theta_fo;
};

/* profile.eval_force_and_rate: the force at the shank angle theta, 0.0
   outside the open support, and, where rate is not NULL, its time
   derivative along theta_rate in *rate. */
static double profile(const struct profile *p, double theta,
                      double theta_rate, double *rate)
{
    if (!(p->theta_fc < theta && theta < p->theta_fo)) {
        if (rate)
            *rate = 0.0;
        return 0.0;
    }
    const double sigma = theta <= p->mu ? p->sigma1 : p->sigma2;
    const double z = (theta - p->mu) / sigma;
    const double f = p->amp * exp(-0.5 * z * z);
    if (rate)
        *rate = f * (-(theta - p->mu) / (sigma * sigma)) * theta_rate;
    return f;
}

/* The profile force at n shank angles theta into out; params holds the
   fields of profile.GaussianParams, in their order. */
void shankexo_force(ptrdiff_t n, const double *theta, const double *params,
                    double *out)
{
    const struct profile p = {params[0], params[1], params[2], params[3],
                              params[4], params[5]};
    for (ptrdiff_t i = 0; i < n; i++)
        out[i] = profile(&p, theta[i], 0.0, NULL);
}

/* Runs n ticks. cols holds the (6, n) open-loop columns (shank and DF
   angles and rates, the cable's zero-force length, the load-cell noise),
   `stride` doubles apart, each contiguous. Outside a stance with params
   the profile's support is empty, so each tick's f_des is 0.0. rows
   receives the (n, 6) log rows: mode code, f_des, f_meas, f_truth,
   l_meas, v. */
void shankexo_loop(ptrdiff_t n, const double *cols, ptrdiff_t stride,
                   double *rows, double *s)
{
    const double *sk_col = cols, *df_col = cols + stride,
                 *sk_rate = cols + 2 * stride, *df_rate = cols + 3 * stride,
                 *l_free = cols + 4 * stride, *noise = cols + 5 * stride;
    const struct profile p = {s[AMP], s[MU], s[SIGMA1], s[SIGMA2],
                              s[THETA_FC], s[THETA_FO]};
    const double r = s[R], k_all = s[K_ALL], kp = s[KP], ki = s[KI],
                 kd = s[KD], map_m = s[MAP_M], map_b = s[MAP_B], ic = s[IC],
                 ceiling = s[CEILING], lim = s[LIM], dt = s[DT],
                 alpha = s[ALPHA], vm = s[VM], stiffness = s[STIFFNESS],
                 pos_ref = s[POS_REF], mu = p.mu,
                 shed_below = 0.25 * p.amp,
                 tolerance = s[MIGRATION_TOLERANCE],
                 residual_max = s[RESIDUAL_MAX],
                 residual_ticks = s[RESIDUAL_TICKS],
                 tighten_gain = s[TIGHTEN_GAIN], probe_rate = s[PROBE_RATE],
                 probe_margin = s[PROBE_MARGIN],
                 engage_force = s[ENGAGE_FORCE], tail_force = s[TAIL_FORCE],
                 tail_rate = s[TAIL_RATE], release_slack = s[RELEASE_SLACK],
                 pretighten_force = s[PRETIGHTEN_FORCE],
                 pretighten_rate = s[PRETIGHTEN_RATE],
                 silent_code = s[SILENT_CODE], abort_code = s[ABORT_CODE];
    const int swing = s[SWING] != 0.0, static_map = map_m <= 0.0;
    const double neg_ic = -ic, neg_lim = -lim, neg_vm = -vm;
    int tier = (int)s[TIER];
    double code = s[CODE], f_meas = s[F_MEAS], df = s[DF], v_fb = s[V_FB],
           e_int = s[E_INT], f_swing_max = s[F_SWING_MAX],
           release = s[RELEASE], motor_v = s[MOTOR_V],
           l_cable = s[L_CABLE], over = s[OVER], target = s[TARGET],
           baseline_c = s[BASELINE_C], delta_l1 = s[DELTA_L1];
    /* The first tick's reading, as the cable lines below leave it. */
    double l_meas = l_cable, l_rate = -motor_v, pos = pos_ref - l_cable,
           l_rest = baseline_c - delta_l1;
    /* The cable's envelope of a zero command: 0.0 for any v_max > 0. */
    double still = 0.0 < vm ? 0.0 : vm;
    still = still > neg_vm ? still : neg_vm;

    s[ENGAGE_AT] = s[CONFIRM_AT] = s[ABORT_AT] = -1.0;
    for (ptrdiff_t i = 0; i < n; i++) {
        const double sk = sk_col[i];
        double f_des, rate, v, u;
        df = df_col[i];
        if (tier != ABORT) {
            /* The safety abort latches on a non-finite input (the sum of
               the eight is not finite), a reading past the force ceiling
               or the position limit, or a load cell that has disagreed
               with the tendon model by more than residual_max for
               residual_ticks ticks in a row, in the laws' tiers and the
               probe. */
            const double sum = f_meas + l_meas + l_rate + pos + sk + df
                               + sk_rate[i] + df_rate[i];
            const int finite = -INFINITY < sum && sum < INFINITY;
            double model = k_all * (r * (df * rad) + l_rest - l_meas);
            model = model > 0.0 ? model : 0.0;
            over = tier <= PROBE && fabs(model - f_meas) > residual_max
                   ? over + 1.0 : 0.0;
            const int reason = !finite ? NON_FINITE
                               : f_meas > ceiling || pos > lim
                                 || pos < neg_lim ? LIMIT
                               : over >= residual_ticks ? RESIDUAL : -1;
            if (reason >= 0) {
                tier = ABORT;
                code = abort_code;
                s[ABORT_AT] = (double)i;
                s[ABORT_REASON] = reason;
                s[ABORT_F] = f_meas;
                s[ABORT_L] = l_meas;
                s[ABORT_RATE] = l_rate;
                s[ABORT_POS] = pos;
                s[ABORT_MODEL] = model;
            } else if (tier == PROBE && f_meas >= engage_force) {
                /* The engage tick goes on as an engaged stance tick. The
                   later ticks read the rest length of the suit migration
                   estimated at its reading by tendon.estimate_migration's
                   operations: a raw estimate below -tolerance keeps the
                   one before. */
                tier = STANCE;
                s[ENGAGE_AT] = (double)i;
                const double raw = baseline_c + r * (df * rad)
                                   - f_meas / k_all - l_meas;
                s[MIGRATION] = raw;
                if (!(raw < -tolerance)) {
                    delta_l1 = raw > 0.0 ? raw : 0.0;
                    l_rest = baseline_c - delta_l1;
                }
            }
        }
        /* The rate and the feedforward only where the stance law reads
           them. */
        f_des = profile(&p, sk, sk_rate[i], tier == STANCE ? &rate : NULL);
        if (tier < PROBE) {
            if (tier == STANCE) {
                /* 1/(M s + B) by backward Euler */
                const double err = f_des - f_meas;
                v_fb = static_map ? err / map_b
                                  : (map_m * v_fb + dt * err)
                                    / (map_m + map_b * dt);
                v = v_fb - (r * (df_rate[i] * rad) - rate / k_all);
                if (sk <= mu) {
                    /* The engagement overshoot shed,
                       min(100, 25 * max(0, excess)). */
                    double excess = f_meas - f_des - 1.0;
                    if (f_des < shed_below && excess > 0.0) {
                        excess *= 25.0;
                        v -= excess < 100.0 ? excess : 100.0;
                    }
                } else if (f_des < tail_force && f_meas > 1.0) {
                    v -= tail_rate;
                }
            } else {
                /* PI with damping injection toward the target length */
                if (swing && f_meas > f_swing_max)
                    f_swing_max = f_meas;
                const double e = target - l_meas;
                double in = e_int + e * dt;
                in = in < ic ? in : ic;
                e_int = in = in > neg_ic ? in : neg_ic;
                v = -(kp * e + ki * in - kd * l_rate);
            }
            /* The command envelope; NaN becomes a hold (zero). */
            if (v != v) {
                u = v = 0.0;
            } else {
                v = v < vm ? v : vm;
                u = v = v > neg_vm ? v : neg_vm;
            }
        } else if (tier == PROBE) {
            /* Probe until the cable is taut: the gap to the model
               tendon's length at the desired force. */
            const double gap = l_meas - (r * (df * rad) - f_des / k_all
                                         + l_rest);
            v = tighten_gain * (gap - probe_margin) + probe_rate;
            v = vm < v ? vm : v;
            v = v > probe_rate ? v : probe_rate;
            u = v < vm ? v : vm;
            u = u > neg_vm ? u : neg_vm;
        } else if (tier == ABORT) {
            /* Pay the cable out to the slack reference, then hold. */
            if (l_meas < release - 0.5) {
                u = v = neg_vm;
            } else {
                v = 0.0;
                u = still;
            }
        } else if (tier == PRETIGHTEN) {
            if (f_meas < pretighten_force) {
                v = pretighten_rate;
                u = v < vm ? v : vm;
                u = u > neg_vm ? u : neg_vm;
            } else {
                /* Baseline confirmed: walk silently from here. */
                s[CONFIRM_AT] = (double)i;
                baseline_c = l_meas + f_meas / k_all - r * (df * rad);
                l_rest = baseline_c - delta_l1;
                target = release = l_meas + release_slack;
                tier = PI;
                code = silent_code;
                v = 0.0;
                u = still;
            }
        } else {
            v = 0.0;
            u = still;
        }
        /* The cable: the motor lag, the cable length, and the force and
           its reading clipped at 0 (NaN reads 0). */
        motor_v += alpha * (u - motor_v);
        l_cable -= motor_v * dt;
        double f_truth = stiffness * (l_free[i] - l_cable);
        f_truth = f_truth > 0.0 ? f_truth : 0.0;
        f_meas = f_truth + noise[i];
        f_meas = f_meas > 0.0 ? f_meas : 0.0;
        l_meas = l_cable;
        l_rate = -motor_v;
        pos = pos_ref - l_cable;
        double *row = rows + 6 * i;
        row[0] = code;
        row[1] = f_des;
        row[2] = f_meas;
        row[3] = f_truth;
        row[4] = l_cable;
        row[5] = v;
    }
    s[F_MEAS] = f_meas;
    s[DF] = df;
    s[V_FB] = v_fb;
    s[E_INT] = e_int;
    s[F_SWING_MAX] = f_swing_max;
    s[RELEASE] = release;
    s[MOTOR_V] = motor_v;
    s[L_CABLE] = l_cable;
    s[OVER] = over;
    s[BASELINE_C] = baseline_c;
    s[DELTA_L1] = delta_l1;
}
