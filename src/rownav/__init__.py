"""Position-agnostic navigation for row-based crops.

Depth-cloud lane perception, a receding-horizon corridor controller, a
behavior supervisor with fault recovery, and a deterministic desk-scale
simulator for closed-loop evaluation.
"""

from .core import (BorderLine, ControlInput, Point2, QuatPose,
                   heading_of, pose_from, wrap_angle)
from .nmpc import (ControlSequence, NmpcConfig, NmpcController, SolverStatus,
                   align_cost, dynamics, integrate_step, lane_cost, meyer_cost,
                   solve, stage_cost)
from .pipeline import (LaneModel, PerceptionResult, PerceptionStatus,
                       PipelineConfig, process)
from .sim import (CameraSpec, Centerline, ObstacleSpec, RunLog, TargetSpec,
                  World, WorldSpec, generate_world, render_cloud, run_scenario,
                  step_rover)
from .metrics import MetricsReport, NotCompleted, compute_report
from .supervisor import (Detection, FallbackConfig, MissionSupervisor, Mode,
                         fallback_control, target_approach_control)
from .config import ConfigError, ScenarioConfig, load_scenario, scenario_from_dict

__version__ = "0.1.0"
