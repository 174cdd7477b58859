"""Corridor-guided flight route optimization.

A coarse-route guide (learned policy or great-circle baseline) constrains
an A* lattice search to a narrow corridor, cutting search effort while
keeping fuel cost near the unconstrained optimum.
"""

from .geo import GeoPoint, great_circle_distance
from .weather import WeatherField, WeatherSample, make_jet_stream, make_uniform, sample
from .perfmodel import AircraftSpec, AircraftState, SegmentResult, fly_segment, route_cost
from .lattice import CoarseRoute, Corridor, Lattice, build_corridor, build_lattice
from .search import SearchResult, astar, row_dp
from .guide import GuideConfig, PolicyParams, roll_out
from .trainer import TrainConfig, train, write_training_log
from .harness import PlanRequest, bench_fwd, bench_width, make_weather, plan

__all__ = [
    "GeoPoint", "great_circle_distance",
    "WeatherField", "WeatherSample", "make_jet_stream", "make_uniform", "sample",
    "AircraftSpec", "AircraftState", "SegmentResult", "fly_segment", "route_cost",
    "CoarseRoute", "Corridor", "Lattice", "build_corridor", "build_lattice",
    "SearchResult", "astar", "row_dp",
    "GuideConfig", "PolicyParams", "roll_out",
    "TrainConfig", "train", "write_training_log",
    "PlanRequest", "bench_fwd", "bench_width", "make_weather", "plan",
]
