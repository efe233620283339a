"""The control tick in its decomposed form, one function per law, calling
wrap_angle: the reference that control.controller's bound tick must
reproduce bit for bit, and the form the law tests exercise."""

from milliswim.control import INTEGRATOR_LIMIT, PSI_D_LIMIT
from milliswim.plant import wrap_angle


def lateral_error(path, st, r1, r2):
    """Lateral error r_e,j = r_d,j - r_j along the active segment's axis j
    (path.segments[st.active_segment].lateral_axis).

    Advances st.active_segment past crossed waypoints first, resetting the
    integrator on a switch.
    """
    idx = path.advance(st.active_segment, r1, r2)
    if idx != st.active_segment:
        st.active_segment = idx
        st.integrator = 0.0
    seg = path.segments[idx]
    return seg.target - (r1 if seg.lateral_axis == 1 else r2)


def lpc_step(cfg, st, r_e, dt):
    """PI lateral-position law: psi_d = k_p*r_e + k_i*integral(r_e).

    The integral uses the rectangular rule at the loop rate. |k_i * integral|
    is clamped at INTEGRATOR_LIMIT and the output at PSI_D_LIMIT.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    st.integrator += r_e * dt
    if cfg.k_i > 0:
        bound = INTEGRATOR_LIMIT / cfg.k_i
        clamped = min(max(st.integrator, -bound), bound)
        if clamped != st.integrator:
            st.integrator = clamped
            st.integrator_clamps += 1
    psi_d = cfg.k_p * r_e + cfg.k_i * st.integrator
    return min(max(psi_d, -PSI_D_LIMIT), PSI_D_LIMIT)


def heading_step(cfg, psi_d, psi):
    """Proportional heading law on the wrapped heading error."""
    return cfg.k_p_psi * wrap_angle(psi_d - psi)


def actuator_mapping(cfg, u_v, u_psi):
    """Split the steering input across the two channels with saturation."""
    u_l = min(max(u_v + u_psi, 0.0), cfg.u_max)
    u_r = min(max(u_v - u_psi, 0.0), cfg.u_max)
    return u_l, u_r


def tick(cfg, path, st, r1, r2, psi, dt):
    """One control tick: LPC -> heading controller -> actuator mapping, the
    LPC correction applied about the active segment's nominal heading."""
    r_e = lateral_error(path, st, r1, r2)
    seg = path.segments[st.active_segment]
    psi_d = wrap_angle(seg.heading + lpc_step(cfg, st, seg.left_normal_sign * r_e, dt))
    return actuator_mapping(cfg, cfg.u_v, heading_step(cfg, psi_d, psi))
