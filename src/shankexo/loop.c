/* The 1 kHz controller-cable loop of `shankexo.controller.Controller.run`,
   one call a stretch of ticks with no gait event inside, with the
   dual-Gaussian profile it tracks; the gait curves and the biological
   torque of `shankexo.plant.GaitWorld`, one call a block of world ticks,
   and its stance curves, one call a template; the gait event detector of
   `shankexo.profile.EstimationPath`, one call an event; and the
   per-stride report of `shankexo.metrics._StrideReport`, one call a
   stride, whose time-based comparator evaluates the same profile.

   `shankexo.kernel` builds this file at import with -O2 -ffp-contract=off
   -fno-builtin-pow and never -ffast-math, so each double operation below
   is the IEEE operation of the Python or numpy expression it stands for,
   in the same order, no multiply-add is fused, and pow(x, 2.0) stays C pow
   (gcc would fold it into x * x, which differs in the last bit): the rows,
   the state, the world's columns and the report have the bits the
   references in `tests/scalar_reference.py` give, and the events and
   detector state those of `gait_signals.EventDetector`, NaN, the
   infinities and -0.0 included. exp, sin, cos, pow and fmod are libm's,
   the functions math.exp, math.sin, math.cos and Python's float ** and %
   call; gcc may join a sin and a cos of one argument into libm's sincos,
   which gives their bits. `a < b ? a : b` is Python's `a if a < b else b`,
   and so min(a, b) only where neither is NaN. */

#include <float.h>
#include <math.h>
#include <stddef.h>

/* math.pi, and math.radians(x) is x * rad, the quotient CPython's math
   module takes (Py_MATH_PI / 180.0). */
static const double pi = 3.14159265358979323846,
                    rad = 3.14159265358979323846 / 180.0;

/* The rows of a world block's columns, `shankexo.plant.Row`, each
   contiguous and `stride` doubles after the one before: the time and the
   channels of gait_signals.KinematicSample, in their order, which are the
   replay stream's (7, n) sample columns, then the cable's zero-force
   length and load-cell noise. */
enum { ROW_T, ROW_FT, ROW_SK, ROW_DF, ROW_FT_RATE, ROW_SK_RATE, ROW_DF_RATE,
       ROW_L_FREE, ROW_NOISE };

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

/* Runs n ticks over the ROW_* columns cols of a world block, of which it
   reads the shank and DF angles and rates, the cable's zero-force length
   and the load-cell noise. Outside a stance with params the profile's
   support is empty, so each tick's f_des is 0.0. rows receives the (n, 6)
   log rows: mode code, f_des, f_meas, f_truth, l_meas, v. */
void shankexo_loop(ptrdiff_t n, const double *cols, ptrdiff_t stride,
                   double *rows, double *s)
{
    const double *sk_col = cols + ROW_SK * stride,
                 *df_col = cols + ROW_DF * stride,
                 *sk_rate = cols + ROW_SK_RATE * stride,
                 *df_rate = cols + ROW_DF_RATE * stride,
                 *l_free = cols + ROW_L_FREE * stride,
                 *noise = cols + ROW_NOISE * stride;
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

/* -- The gait curves --------------------------------------------------- */

/* The slots of the template vector, which `shankexo.plant` fills by
   these names, lowercased: the GaitTemplate fields the curves read, with
   SK0 and SK1 the ends of theta_sk_span and U_PK the phase of df_peak.
   TEMPLATE lists them once; the enum and the names `shankexo.kernel`
   reads are both made from it. */
#define TEMPLATE(X) X(PERIOD) X(STANCE_RATIO) X(SK0) X(SK1) X(FT_PEAK) \
    X(G_MAX) X(G_RISE_END) X(G_FALL_START) X(G_FALL_END) X(U_PLUNGE)    \
    X(G_DIP) X(G_PLUNGE) X(SWING_EASE_S) X(SWING_HOLD) X(TORQUE_SHARPNESS) \
    X(U_PK)
#define SLOT(name) name,
#define SLOT_NAME(name) #name " "
enum { TEMPLATE(SLOT) };
const char shankexo_template_slots[] = TEMPLATE(SLOT_NAME);

/* A template's curve constants, each computed as the scalar curves
   (`tests/scalar_reference.py`) compute it. */
struct gait {
    double rho, period, sk0, sk1, dsk, ft_peak, g_max, g_rise_end,
           g_fall_start, g_fall_end, fall_span, drop, u_plunge, plunge_span,
           g_dip, g_plunge, w_e, w_h, ft_fo, ft_hold, ease_drop, ease_rate,
           return_span, return_gain, sharpness, u_pk;
};

static struct gait read_template(const double *t)
{
    struct gait c;
    c.rho = t[STANCE_RATIO];
    c.period = t[PERIOD];
    c.sk0 = t[SK0];
    c.sk1 = t[SK1];
    c.dsk = c.sk1 - c.sk0;
    c.ft_peak = t[FT_PEAK];
    c.g_max = t[G_MAX];
    c.g_rise_end = t[G_RISE_END];
    c.g_fall_start = t[G_FALL_START];
    c.g_fall_end = t[G_FALL_END];
    c.fall_span = c.g_fall_end - c.g_fall_start;
    c.u_plunge = t[U_PLUNGE];
    c.plunge_span = 1.0 - c.u_plunge;
    c.g_dip = t[G_DIP];
    c.g_plunge = t[G_PLUNGE];
    c.drop = c.g_max - c.g_dip;
    /* the swing's knots, its foot-off pose and the ease-out gain */
    const double g_end = c.g_dip + c.g_plunge,
                 plunge_rate = 2.0 * c.g_plunge / (1.0 - c.u_plunge),
                 t_sw = c.period * (1.0 - c.rho),
                 gain = 0.5 * (plunge_rate / (c.period * c.rho))
                        * t[SWING_EASE_S],
                 rate_w = plunge_rate * (t_sw / (c.period * c.rho));
    c.w_e = t[SWING_EASE_S] / t_sw;
    c.w_h = c.w_e + t[SWING_HOLD];
    c.ft_fo = c.ft_peak - g_end;
    c.ft_hold = c.ft_fo - gain;
    c.ease_drop = 0.5 * rate_w * c.w_e;
    c.ease_rate = -0.5 * rate_w;
    c.return_span = 1.0 - c.w_h;
    c.return_gain = g_end + gain;
    c.sharpness = t[TORQUE_SHARPNESS];
    c.u_pk = t[U_PK];
    return c;
}

static double s3(double v)
{
    return v * v * (3.0 - 2.0 * v);
}

static double ds3(double v)
{
    return 6.0 * v * (1.0 - v);
}

/* The stance pose at stance fraction u into pose: theta_sk, theta_ft and
   their derivatives in u; and the excess G and dG/du into g, a piece
   chosen by an `if u <= knot` chain. */
static void stance_pose(const struct gait *c, double u, double *pose, double *g)
{
    if (u <= c->g_rise_end) {
        const double v = u / c->g_rise_end;
        g[0] = c->g_max * s3(v);
        g[1] = c->g_max * ds3(v) / c->g_rise_end;
    } else if (u <= c->g_fall_start) {
        g[0] = c->g_max;
        g[1] = 0.0;
    } else if (u <= c->g_fall_end) {
        const double v = (u - c->g_fall_start) / c->fall_span;
        g[0] = c->g_max - c->drop * s3(v);
        g[1] = -c->drop * ds3(v) / c->fall_span;
    } else if (u <= c->u_plunge) {
        g[0] = c->g_dip;
        g[1] = 0.0;
    } else {
        const double xi = (u - c->u_plunge) / c->plunge_span;
        g[0] = c->g_dip + c->g_plunge * (xi - sin(pi * xi) / pi);
        g[1] = c->g_plunge * (1.0 - cos(pi * xi)) / c->plunge_span;
    }
    pose[0] = c->sk0 + c->dsk * s3(u);
    pose[1] = c->ft_peak - g[0];
    pose[2] = c->dsk * ds3(u);
    pose[3] = -g[1];
}

/* The swing pose at swing fraction w: the foot-pitch rate eases out from
   the plunge, the pose holds at foot-off, then half-cosines return every
   channel to its contact pose. */
static void swing_pose(const struct gait *c, double w, double *pose)
{
    if (w <= c->w_e) {
        const double xi = w / c->w_e;
        pose[0] = c->sk1;
        pose[1] = c->ft_fo - c->ease_drop * (xi + sin(pi * xi) / pi);
        pose[2] = 0.0;
        pose[3] = c->ease_rate * (1.0 + cos(pi * xi));
    } else if (w <= c->w_h) {
        pose[0] = c->sk1;
        pose[1] = c->ft_hold;
        pose[2] = pose[3] = 0.0;
    } else {
        const double v = (w - c->w_h) / c->return_span;
        const double cv = 0.5 * (1.0 + cos(pi * v)),
                     dc = -0.5 * pi * sin(pi * v) / c->return_span;
        pose[0] = c->sk0 + c->dsk * cv;
        pose[1] = c->ft_peak - c->return_gain * cv;
        pose[2] = c->dsk * dc;
        pose[3] = -c->return_gain * dc;
    }
}

/* The (6, n) rows out of the template vector t at the n stance fractions
   u: theta_sk, theta_ft, dsk/du, dft/du, G and dG/du. */
void shankexo_stance(const double *t, ptrdiff_t n, const double *u,
                     double *out)
{
    const struct gait c = read_template(t);
    for (ptrdiff_t i = 0; i < n; i++) {
        double pose[4], g[2];
        stance_pose(&c, u[i], pose, g);
        for (int k = 0; k < 4; k++)
            out[k * n + i] = pose[k];
        out[4 * n + i] = g[0];
        out[5 * n + i] = g[1];
    }
}

/* Ticks start to n - 1 of a world block, from the template vector t and
   the ticks' gait phase and speed scale (which rescales rates only): rows
   ROW_FT to ROW_DF_RATE of the ROW_* columns cols, the kinematic frame,
   and bio, the normalized single-crest ankle torque, peaking at the
   DF-peak phase and 0.0 outside stance. A frame's phase outside [0, 1) is
   first taken as Python's phase % 1.0; bio reads the phase as it is. */
void shankexo_world(const double *t, ptrdiff_t start, ptrdiff_t n,
                    const double *phase, const double *scale, double *cols,
                    ptrdiff_t stride, double *bio)
{
    const struct gait c = read_template(t);
    double *ft_col = cols + ROW_FT * stride, *sk_col = cols + ROW_SK * stride,
           *df_col = cols + ROW_DF * stride,
           *ft_rate = cols + ROW_FT_RATE * stride,
           *sk_rate = cols + ROW_SK_RATE * stride,
           *df_rate = cols + ROW_DF_RATE * stride;
    for (ptrdiff_t i = start; i < n; i++) {
        const double cycle_rate = scale[i] / c.period;
        double p = phase[i], pose[4], g[2], mult;
        if (!(0.0 <= p && p < 1.0)) {
            p = fmod(p, 1.0);
            p = p == 0.0 ? 0.0 : p < 0.0 ? p + 1.0 : p;
        }
        if (p < c.rho) {
            stance_pose(&c, p / c.rho, pose, g);
            mult = cycle_rate / c.rho;
        } else {
            swing_pose(&c, (p - c.rho) / (1.0 - c.rho), pose);
            mult = cycle_rate / (1.0 - c.rho);
        }
        const double sk_r = pose[2] * mult, ft_r = pose[3] * mult;
        ft_col[i] = pose[1];
        sk_col[i] = pose[0];
        df_col[i] = pose[0] - pose[1];
        ft_rate[i] = ft_r;
        sk_rate[i] = sk_r;
        df_rate[i] = sk_r - ft_r;

        p = phase[i];
        if (0.0 <= p && p <= c.rho) {
            const double u = p / c.rho;
            const double base = u <= c.u_pk
                ? 0.5 * (1.0 - cos(pi * u / c.u_pk))
                : 0.5 * (1.0 + cos(pi * (u - c.u_pk) / (1.0 - c.u_pk)));
            bio[i] = pow(base, c.sharpness);
        } else {
            bio[i] = 0.0;
        }
    }
}

/* -- The gait event detector ------------------------------------------- */

/* The slots of the detector's float64 vector d, in the order
   profile.EstimationPath fills and reads them: the fields of
   gait_signals.DetectorConfig, in their order; then the state of
   gait_signals.EventDetector, first those Python reads: its mode (0
   swing, 1 stance), last foot contact time, foot-off arming threshold,
   gait cycle count and the last extremum's time. NaN stands for None:
   an extremum value and a stance duration, once set, are never NaN. */
enum {
    /* DetectorConfig */
    DELTA_ANG, DELTA_VEL, REFRACTORY_MS, FO_GATE_FRACTION, FO_ARM_INIT,
    FO_ARM_FRACTION, FO_ARM_CAP,
    /* state */
    MODE, FC_T_MS, FO_ARM_THRESHOLD, GC_COUNT, EXT_T, REFRACTORY_UNTIL,
    ARMED, EXT_VALUE, STANCE_DUR, FO_GATE,
    DETECTOR_SLOTS
};

/* Where d holds the state, and its length: the layout `shankexo.kernel`
   reads. */
const ptrdiff_t shankexo_detector_layout[] = {MODE, DETECTOR_SLOTS};

/* EventDetector.update, line for line, with its config and state in d,
   over samples start to limit - 1 of the ROW_* sample columns cols, of
   which it reads the time, the foot pitch and its rate. Returns the index
   of the first sample that confirms an event, or limit. The event is the
   new mode's (foot contact on entering stance), at EXT_T, of gait cycle
   GC_COUNT - 1. */
ptrdiff_t shankexo_detect(double *d, ptrdiff_t start, ptrdiff_t limit,
                          const double *cols, ptrdiff_t stride)
{
    const double *t_col = cols + ROW_T * stride, *ft = cols + ROW_FT * stride,
                 *ft_rate = cols + ROW_FT_RATE * stride;
    const double delta_ang = d[DELTA_ANG], delta_vel = d[DELTA_VEL],
                 refractory_ms = d[REFRACTORY_MS],
                 fo_gate_fraction = d[FO_GATE_FRACTION],
                 fo_arm_fraction = d[FO_ARM_FRACTION],
                 fo_arm_cap = d[FO_ARM_CAP];
    int stance = d[MODE] != 0.0, armed = d[ARMED] != 0.0;
    double fc_t_ms = d[FC_T_MS], fo_arm_threshold = d[FO_ARM_THRESHOLD],
           gc_count = d[GC_COUNT], ext_t = d[EXT_T],
           refractory_until = d[REFRACTORY_UNTIL], ext_value = d[EXT_VALUE],
           stance_dur = d[STANCE_DUR], fo_gate = d[FO_GATE];
    ptrdiff_t i;
    for (i = start; i < limit; i++) {
        const double t = t_col[i];
        if (!(refractory_until <= t && t < INFINITY))   /* also NaN */
            continue;
        if (!stance) {
            const double value = ft[i];
            if (value - value != 0.0)   /* NaN for a NaN or an infinity */
                continue;
            const double ext = ext_value;
            if (ext != ext || value > ext) {
                ext_value = value;
                ext_t = t;
            } else if (ext - value >= delta_ang) {
                gc_count += 1.0;
                fc_t_ms = ext_t;
                if (stance_dur == stance_dur)
                    fo_gate = fc_t_ms + fo_gate_fraction * stance_dur;
                stance = 1;
                break;
            }
            continue;
        }
        if (t < fo_gate)
            continue;
        const double rate = ft_rate[i];
        if (rate - rate != 0.0)
            continue;
        const double ext = ext_value;
        if (!armed) {
            if (rate < fo_arm_threshold) {
                armed = 1;
                ext_value = rate;
                ext_t = t;
            }
        } else if (rate < ext) {
            ext_value = rate;
            ext_t = t;
        } else if (rate - ext >= delta_vel) {
            /* min(fo_arm_cap, fo_arm_fraction * ext) */
            const double arm = fo_arm_fraction * ext;
            fo_arm_threshold = arm < fo_arm_cap ? arm : fo_arm_cap;
            stance_dur = ext_t - fc_t_ms;
            stance = 0;
            break;
        }
    }
    if (i < limit) {
        /* EventDetector._enter at the confirming sample */
        refractory_until = t_col[i] + refractory_ms;
        ext_value = NAN;
        armed = 0;
    }
    d[MODE] = stance;
    d[FC_T_MS] = fc_t_ms;
    d[FO_ARM_THRESHOLD] = fo_arm_threshold;
    d[GC_COUNT] = gc_count;
    d[EXT_T] = ext_t;
    d[REFRACTORY_UNTIL] = refractory_until;
    d[ARMED] = armed;
    d[EXT_VALUE] = ext_value;
    d[STANCE_DUR] = stance_dur;
    d[FO_GATE] = fo_gate;
    return i;
}

/* -- The per-stride report --------------------------------------------- */

/* The points of a stance's resampling grid, and of the percent-GC grid of
   a clean stride's shank angle. */
#define GRID 101

/* The slots of the report's float64 vector v, in the order
   metrics._StrideReport fills and reads them: the log's row width and the
   indices of the columns the report reads (artifacts.LOG_COLUMNS); the
   stride's foot contact, foot-off and next foot contact times (ms) and its
   adopted profile (the fields of profile.GaussianParams, in their order);
   the last clean stride's duration, 0.0 before the first, which with the
   curve CLEAN is the time-based comparator's state; and the report: the
   stride's perturbation kind and peak f_des, its RMSE and stance
   correlations, each with a flag that it is defined, and its swing's peak
   f_meas. */
enum {
    /* the log */
    WIDTH, COL_T, COL_SK, COL_F_DES, COL_F_MEAS, COL_KIND, COL_BIO,
    /* the stride */
    FC_MS, FO_MS, NEXT_MS, PARAMS,
    /* state */
    CLEAN_DURATION = PARAMS + 6,
    /* the report */
    KIND, PEAK, RMSE, R_SHANK, R_TIME, SWING_MAX, HAS_RMSE, HAS_R_SHANK,
    HAS_R_TIME,
    REPORT_SLOTS
};

/* The rows of the (4, GRID) curves: the last clean stride's shank angle
   at the percent-GC grid (state), and the stance's f_des, bio and
   time-based comparator on its grid (NaN where the stride has none). */
enum { CLEAN, DES_G, BIO_G, TIME_G };

/* Where v holds the stride, the state and the report, its length and the
   grid's points: the layout `shankexo.kernel` reads. */
const ptrdiff_t shankexo_report_layout[] = {FC_MS, CLEAN_DURATION, KIND,
                                            REPORT_SLOTS, GRID};

/* Point k of the grid from t0 to t1 by np.linspace's formula for a float
   step: k * ((t1 - t0) / (GRID - 1)) + t0, the last point t1. */
static double grid_point(ptrdiff_t k, double t0, double t1)
{
    return k < GRID - 1 ? (double)k * ((t1 - t0) / (GRID - 1)) + t0 : t1;
}

/* A series of a stride, one value a tick from the stride's first row: the
   log column col, rows[k * width + col] (COLUMN), or, with col the tick
   times, the tick's percent GC (t - t_fc) / duration (PERCENT_GC) or the
   time-based comparator there (TIME_PROFILE). */
enum { COLUMN, PERCENT_GC, TIME_PROFILE };

struct series {
    const double *rows;
    ptrdiff_t width, col;
    int kind;
    double t_fc, duration;
    const struct profile *p;
    const double *clean;
};

/* The time-based comparator at percent GC pct: 0.0 outside [0, 1), else
   the profile at the clean stride's shank angle at pct, linearly
   interpolated over the percent-GC grid as w = (pct - pts[lo]) /
   (pts[hi] - pts[lo]), then ths[lo] + w * (ths[hi] - ths[lo]), and
   ths[0] at pct 0 (np.interp's order differs). */
static double time_profile(const struct series *s, double pct)
{
    if (!(0.0 <= pct && pct < 1.0))
        return 0.0;
    const double *ths = s->clean;
    double theta = ths[0];
    if (pct > 0.0) {
        /* pts[lo] <= pct < pts[lo + 1], from the uniform grid's guess */
        ptrdiff_t lo = (ptrdiff_t)(pct * (GRID - 1));
        while (lo > 0 && grid_point(lo, 0.0, 1.0) > pct)
            lo--;
        while (lo < GRID - 2 && grid_point(lo + 1, 0.0, 1.0) <= pct)
            lo++;
        const double pt = grid_point(lo, 0.0, 1.0);
        const double w = (pct - pt) / (grid_point(lo + 1, 0.0, 1.0) - pt);
        theta = ths[lo] + w * (ths[lo + 1] - ths[lo]);
    }
    return profile(s->p, theta, 0.0, NULL);
}

static double value(const struct series *s, ptrdiff_t k)
{
    const double x = s->rows[k * s->width + s->col];
    if (s->kind == COLUMN)
        return x;
    const double pct = (x - s->t_fc) / s->duration;
    return s->kind == PERCENT_GC ? pct : time_profile(s, pct);
}

/* np.interp(x, xp, fp) at the GRID points x over n > 0 ticks, xp
   ascending, in two steps. locate finds, for each point, the tick j it
   reads: the last with xp[j] <= x, -1 before xp[0], n past xp[n - 1], and
   NAN_AT where x is NaN. resample takes fp's end values outside xp, fp[j]
   at xp[j], else slope * (x - xp[j]) + fp[j], from the other end of the
   interval where that is NaN, and fp[j] where that is NaN too and the
   ends are equal; a NaN x, or every x where n is 1, reads the same as
   numpy. Series on one grid share one locate, and each point reads the
   ticks around it alone. */
#define NAN_AT -2

static void locate(const double *x, const struct series *xp, ptrdiff_t n,
                   ptrdiff_t *at)
{
    const double first = value(xp, 0), last = value(xp, n - 1);
    for (ptrdiff_t i = 0; i < GRID; i++) {
        const double xi = x[i];
        if (xi != xi || xi < first || xi > last) {
            at[i] = xi != xi ? NAN_AT : xi < first ? -1 : n;
            continue;
        }
        ptrdiff_t lo = 0, hi = n;
        while (lo < hi) {
            const ptrdiff_t mid = lo + (hi - lo) / 2;
            if (xi >= value(xp, mid))
                lo = mid + 1;
            else
                hi = mid;
        }
        at[i] = lo - 1;
    }
}

static void resample(const double *x, const ptrdiff_t *at,
                     const struct series *xp, const struct series *fp,
                     ptrdiff_t n, double *out)
{
    for (ptrdiff_t i = 0; i < GRID; i++) {
        const double xi = x[i];
        if (n == 1) {
            out[i] = value(fp, 0);
            continue;
        }
        const ptrdiff_t j = at[i];
        if (j == -1 || j == n) {
            out[i] = value(fp, j == n ? n - 1 : 0);
            continue;
        }
        if (j == NAN_AT) {
            out[i] = xi;
            continue;
        }
        const double xj = value(xp, j), yj = value(fp, j);
        if (j == n - 1 || xj == xi) {
            out[i] = yj;
            continue;
        }
        const double xk = value(xp, j + 1), yk = value(fp, j + 1);
        const double slope = (yk - yj) / (xk - xj);
        double y = slope * (xi - xj) + yj;
        if (y != y) {
            y = slope * (xi - xk) + yk;
            if (y != y && yj == yk)
                y = yj;
        }
        out[i] = y;
    }
}

/* np.searchsorted(t, key, side) over the column t of n log rows,
   ascending in numpy's order, in which NaN comes last. */
static int before(double a, double b)
{
    return a < b || (b != b && a == a);
}

static ptrdiff_t cut(const double *log, ptrdiff_t width, ptrdiff_t t,
                     ptrdiff_t n, double key, int right)
{
    ptrdiff_t lo = 0, hi = n;
    while (lo < hi) {
        const ptrdiff_t mid = lo + (hi - lo) / 2;
        const double tm = log[mid * width + t];
        if (right ? !before(key, tm) : before(tm, key))
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* The larger of the maximum m so far and x, as ndarray.max takes it: the
   first NaN, else the first of the largest. */
static double larger(double m, double x)
{
    return m != m || x <= m ? m : x;
}

/* ndarray.max of the GRID values x. */
static double grid_max(const double *x)
{
    double m = x[0];
    for (int k = 1; k < GRID; k++)
        m = larger(m, x[k]);
    return m;
}

/* x[0] ** 2 + x[1] ** 2 + ..., added left to right, each square C pow
   (np.float_power): `kernel` builds with -fno-builtin-pow, which keeps gcc
   from making it x * x. A square is never -0.0, so a sum of squares
   started from 0.0, as here, has the bits of one started from the first
   square and then added to 0.0, as numpy's was. */
static double sum_of_squares(const double *x)
{
    double s = 0.0;
    for (int k = 0; k < GRID; k++)
        s += pow(x[k], 2.0);
    return s;
}

/* x times the power of two that brings max |x| into [0.5, 1): Python's
   math.frexp, whose exponent is 0 for 0.0, NaN and the infinities. */
static void unit_scale(double *x)
{
    double m = fabs(x[0]);
    for (int k = 1; k < GRID; k++)
        m = larger(m, fabs(x[k]));
    int e = 0;
    if (isfinite(m))
        frexp(m, &e);
    for (int k = 0; k < GRID; k++)
        x[k] = ldexp(x[k], -e);
}

/* metrics.stance_correlation(m, b) over the grid into *r: the sample
   Pearson correlation of m / max(m) and b / max(b), every sum left to
   right from its first term, then + 0.0. Where sxx, syy or their product
   (Python's min order) is not a normal float, the sums are taken again
   over the deviations scaled by unit_scale. 0 where it is undefined: a
   maximum not above 0, or a series of zero deviations. */
static int correlation(const double *m, const double *b, double *r)
{
    const double m_max = grid_max(m), b_max = grid_max(b);
    if (m_max <= 0.0 || b_max <= 0.0)
        return 0;
    double dx[GRID], dy[GRID], sx = 0.0, sy = 0.0;
    for (int k = 0; k < GRID; k++) {
        dx[k] = m[k] / m_max;
        dy[k] = b[k] / b_max;
        sx = k ? sx + dx[k] : dx[k];
        sy = k ? sy + dy[k] : dy[k];
    }
    const double mx = (sx + 0.0) / GRID, my = (sy + 0.0) / GRID;
    int vary_x = 0, vary_y = 0;
    for (int k = 0; k < GRID; k++) {
        dx[k] -= mx;
        dy[k] -= my;
        vary_x |= dx[k] != 0.0;
        vary_y |= dy[k] != 0.0;
    }
    if (!vary_x || !vary_y)
        return 0;
    double sxx = sum_of_squares(dx), syy = sum_of_squares(dy);
    double least = syy < sxx ? syy : sxx;
    least = sxx * syy < least ? sxx * syy : least;
    if (!(least >= DBL_MIN && sxx * syy < INFINITY)) {
        unit_scale(dx);
        unit_scale(dy);
        sxx = sum_of_squares(dx);
        syy = sum_of_squares(dy);
    }
    double sxy = dx[0] * dy[0];
    for (int k = 1; k < GRID; k++)
        sxy += dx[k] * dy[k];
    *r = (sxy + 0.0) / sqrt(sxx * syy);
    return 1;
}

/* The report of the stride whose rows are among the n log rows (width
   doubles each, ascending in time), as metrics._StrideReport reads it,
   with the bits of the numpy code it replaced: from foot contact to
   foot-off, the tracking RMSE against the peak f_des as a fraction of it,
   and the stance correlations of f_des and of the time-based comparator
   with bio, each resampled onto the stance's grid; from foot-off to the
   next foot contact, the peak f_meas. A stride with no perturbed tick
   becomes the clean stride, its shank angle resampled by percent GC. */
void shankexo_report(ptrdiff_t n, const double *log, double *v,
                     double *curves)
{
    const ptrdiff_t width = (ptrdiff_t)v[WIDTH];
    const ptrdiff_t t = (ptrdiff_t)v[COL_T];
    const double fc = v[FC_MS], fo = v[FO_MS], next = v[NEXT_MS];
    const struct profile p = {v[PARAMS], v[PARAMS + 1], v[PARAMS + 2],
                              v[PARAMS + 3], v[PARAMS + 4], v[PARAMS + 5]};
    const ptrdiff_t i0 = cut(log, width, t, n, fc, 0),
                    i1 = cut(log, width, t, n, fo, 1),
                    i_swing = cut(log, width, t, n, fo, 0),
                    i2 = cut(log, width, t, n, next, 0), stance = i1 - i0;
    const double *row = log + i0 * width;
    const ptrdiff_t c_kind = (ptrdiff_t)v[COL_KIND],
                    c_des = (ptrdiff_t)v[COL_F_DES],
                    c_mea = (ptrdiff_t)v[COL_F_MEAS],
                    c_bio = (ptrdiff_t)v[COL_BIO];
    const struct series tt = {row, width, t, COLUMN, 0.0, 0.0, NULL, NULL},
                        des = {row, width, c_des, COLUMN, 0.0, 0.0, NULL,
                               NULL},
                        bio = {row, width, c_bio, COLUMN, 0.0, 0.0, NULL,
                               NULL};
    double *clean = curves + CLEAN * GRID, *des_g = curves + DES_G * GRID,
           *bio_g = curves + BIO_G * GRID, *time_g = curves + TIME_G * GRID;

    /* One pass over the stride's rows: the perturbation kind over the
       stride, the peak f_des, the peak bio and the sum of the squared
       tracking errors (as sum_of_squares adds them) over the stance, and
       the peak f_meas over the swing; 0.0 over no row. */
    double kind = 0.0, peak = 0.0, bio_max = 0.0, acc = 0.0, swing_max = 0.0;
    for (ptrdiff_t k = 0; k < i2 - i0; k++) {
        const double *r = row + k * width;
        kind = k ? larger(kind, r[c_kind]) : r[c_kind];
        if (k < stance) {
            acc += pow(r[c_des] - r[c_mea], 2.0);
            peak = k ? larger(peak, r[c_des]) : r[c_des];
            bio_max = k ? larger(bio_max, r[c_bio]) : r[c_bio];
        }
        if (i0 + k >= i_swing)
            swing_max = i0 + k > i_swing ? larger(swing_max, r[c_mea])
                                         : r[c_mea];
    }

    v[KIND] = kind;
    v[PEAK] = peak;
    v[SWING_MAX] = swing_max;
    v[HAS_RMSE] = v[HAS_R_SHANK] = v[HAS_R_TIME] = 0.0;
    v[RMSE] = v[R_SHANK] = v[R_TIME] = NAN;
    if (peak > 1.0) {
        v[RMSE] = sqrt(acc / (double)stance) / peak;
        v[HAS_RMSE] = 1.0;
    }

    for (ptrdiff_t k = DES_G * GRID; k < (TIME_G + 1) * GRID; k++)
        curves[k] = NAN;
    if (peak > 1.0 && bio_max > 0.0) {
        /* The stance series, linearly resampled onto one uniform grid */
        const double t0 = value(&tt, 0), t1 = value(&tt, stance - 1);
        double grid[GRID];
        ptrdiff_t at[GRID];
        for (ptrdiff_t k = 0; k < GRID; k++)
            grid[k] = grid_point(k, t0, t1);
        if (stance > 1)
            locate(grid, &tt, stance, at);
        resample(grid, at, &tt, &bio, stance, bio_g);
        resample(grid, at, &tt, &des, stance, des_g);
        v[HAS_R_SHANK] = correlation(des_g, bio_g, &v[R_SHANK]);
        if (v[CLEAN_DURATION] != 0.0) {
            const struct series comparator = {row, width, t, TIME_PROFILE,
                                              fc, v[CLEAN_DURATION], &p,
                                              clean};
            resample(grid, at, &tt, &comparator, stance, time_g);
            v[HAS_R_TIME] = correlation(time_g, bio_g, &v[R_TIME]);
        }
    }

    /* Python's int(kind) == 0, for a stride with a row */
    if (-1.0 < kind && kind < 1.0 && i2 > i0) {
        const struct series pct = {row, width, t, PERCENT_GC, fc,
                                   next - fc, NULL, NULL},
                            sk = {row, width, (ptrdiff_t)v[COL_SK], COLUMN,
                                  0.0, 0.0, NULL, NULL};
        double pts[GRID];
        ptrdiff_t at[GRID];
        for (ptrdiff_t k = 0; k < GRID; k++)
            pts[k] = grid_point(k, 0.0, 1.0);
        if (i2 - i0 > 1)
            locate(pts, &pct, i2 - i0, at);
        resample(pts, at, &pct, &sk, i2 - i0, clean);
        v[CLEAN_DURATION] = next - fc;
    }
}
