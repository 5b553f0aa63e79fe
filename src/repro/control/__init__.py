"""Control: trajectory tracking.

"Control ensures that the MAV closely follows the generated trajectory while
guaranteeing stability.  We use standard PID control" (§III-A).  Control is
not a RoboRun knob — neither precision nor volume operators touch it — so
the reproduction does not model the PID loop: the drone tracks the
smoother's trajectories on the kinematic drone model with a pure-pursuit
velocity follower (:class:`PurePursuitFollower`).
"""

from repro.control.follower import PurePursuitFollower

__all__ = ["PurePursuitFollower"]
