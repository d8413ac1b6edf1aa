/* The 1 kHz controller-cable loop of `shankexo.controller.Controller.run`:
   one call runs a stretch of ticks with no gait event inside.

   `controller` builds this file at import with -O2 -ffp-contract=off and
   never -ffast-math, so each double operation below is the IEEE operation
   of the Python expression it stands for, in the same order, and no
   multiply-add is fused: the rows and the state have the bits the
   per-tick reference (`tests/scalar_reference.py`) gives, NaN, the
   infinities and -0.0 included. `a < b ? a : b` is Python's
   `a if a < b else b`, and so min(a, b) only where neither is NaN. */

#include <math.h>
#include <stddef.h>

/* The tiers of the loop body, in the order of controller._STANCE to
   controller._IDLE. */
enum { STANCE, PI, PROBE, ABORT, PRETIGHTEN, IDLE };

/* The slots of the float64 vector s, in the order controller.Controller.run
   fills and reads them: the stretch's constants, with its first tick's
   tier and mode code; the loop state, read before the stretch and written
   back after it; and what the stretch decided, for Python to apply after
   the call: the tick of the engagement, the baseline confirmation and the
   abort (-1 where none), and the values each one needs. */
enum {
    /* constants */
    R, K_ALL, KP, KI, KD, MAP_M, MAP_B, IC, CEILING, LIM, PRETIGHTEN_FORCE,
    PRETIGHTEN_RATE, DT, ALPHA, VM, STIFFNESS, POS_REF, RAD, MU, SHED_BELOW,
    L_REST, TARGET, SWING, TIGHTEN_GAIN, PROBE_RATE, PROBE_MARGIN,
    ENGAGE_FORCE, TAIL_FORCE, TAIL_RATE, RELEASE_SLACK, SILENT_CODE,
    ABORT_CODE, TIER, CODE,
    /* state */
    F_MEAS, L_MEAS, L_RATE, POS, DF, V_FB, E_INT, F_SWING_MAX,
    RELEASE, MOTOR_V, L_CABLE,
    /* decisions */
    ENGAGE_AT, ENGAGE_F, ENGAGE_L, CONFIRM_AT, BASELINE, ABORT_AT,
    ABORT_LIMIT, ABORT_F, ABORT_L, ABORT_RATE, ABORT_POS
};

/* Runs n ticks. cols holds the (6, n) open-loop columns (shank and DF
   angles and rates, the cable's zero-force length, the load-cell noise),
   `stride` doubles apart, each contiguous. f_col and v_ff are the profile
   force and the feedforward per tick, both NULL outside a stance with
   params. rows receives the (n, 6) log rows: mode code, f_des, f_meas,
   f_truth, l_meas, v. */
void shankexo_loop(ptrdiff_t n, const double *cols, ptrdiff_t stride,
                   const double *f_col, const double *v_ff, double *rows,
                   double *s)
{
    const double *sk_col = cols, *df_col = cols + stride,
                 *sk_rate = cols + 2 * stride, *df_rate = cols + 3 * stride,
                 *l_free = cols + 4 * stride, *noise = cols + 5 * stride;
    const double r = s[R], k_all = s[K_ALL], kp = s[KP], ki = s[KI],
                 kd = s[KD], map_m = s[MAP_M], map_b = s[MAP_B], ic = s[IC],
                 ceiling = s[CEILING], lim = s[LIM], dt = s[DT],
                 alpha = s[ALPHA], vm = s[VM], stiffness = s[STIFFNESS],
                 pos_ref = s[POS_REF], rad = s[RAD], mu = s[MU],
                 shed_below = s[SHED_BELOW], l_rest = s[L_REST],
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
    double code = s[CODE], f_meas = s[F_MEAS], l_meas = s[L_MEAS],
           l_rate = s[L_RATE], pos = s[POS], df = s[DF], v_fb = s[V_FB],
           e_int = s[E_INT], f_swing_max = s[F_SWING_MAX],
           release = s[RELEASE], motor_v = s[MOTOR_V],
           l_cable = s[L_CABLE], target = s[TARGET];
    /* The cable's envelope of a zero command: 0.0 for any v_max > 0. */
    double still = 0.0 < vm ? 0.0 : vm;
    still = still > neg_vm ? still : neg_vm;

    s[ENGAGE_AT] = s[CONFIRM_AT] = s[ABORT_AT] = -1.0;
    for (ptrdiff_t i = 0; i < n; i++) {
        const double sk = sk_col[i], f_des = f_col ? f_col[i] : 0.0;
        double v, u;
        df = df_col[i];
        if (tier != ABORT) {
            /* The safety abort latches on a non-finite input (the sum of
               the eight is not finite) or a reading past the force
               ceiling or the position limit. */
            const double sum = f_meas + l_meas + l_rate + pos + sk + df
                               + sk_rate[i] + df_rate[i];
            const int finite = -INFINITY < sum && sum < INFINITY;
            if (!finite || f_meas > ceiling || pos > lim || pos < neg_lim) {
                tier = ABORT;
                code = abort_code;
                s[ABORT_AT] = (double)i;
                s[ABORT_LIMIT] = finite;
                s[ABORT_F] = f_meas;
                s[ABORT_L] = l_meas;
                s[ABORT_RATE] = l_rate;
                s[ABORT_POS] = pos;
            } else if (tier == PROBE && f_meas >= engage_force) {
                /* The engage tick goes on as an engaged stance tick. */
                tier = STANCE;
                s[ENGAGE_AT] = (double)i;
                s[ENGAGE_F] = f_meas;
                s[ENGAGE_L] = l_meas;
            }
        }
        if (tier < PROBE) {
            if (tier == STANCE) {
                /* 1/(M s + B) by backward Euler */
                const double err = f_des - f_meas;
                v_fb = static_map ? err / map_b
                                  : (map_m * v_fb + dt * err)
                                    / (map_m + map_b * dt);
                v = v_fb - v_ff[i];
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
                s[BASELINE] = l_meas + f_meas / k_all - r * (df * rad);
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
    s[L_MEAS] = l_meas;
    s[L_RATE] = l_rate;
    s[POS] = pos;
    s[DF] = df;
    s[V_FB] = v_fb;
    s[E_INT] = e_int;
    s[F_SWING_MAX] = f_swing_max;
    s[RELEASE] = release;
    s[MOTOR_V] = motor_v;
    s[L_CABLE] = l_cable;
}
