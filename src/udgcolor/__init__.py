"""Constructive 3/2-of-clique-number coloring for stability-two unit disk
graphs, with exact rational geometry and brute-force verification throughout.
"""

from .core import (AbstractGraph, Instance, build_instance, complement,
                   instance_graph, stability_witness)
from .cover import (CliqueCover, CliquePartition, DiskCaseTrace,
                    collinear_cover, cover_three_cliques, disk_case_cover,
                    far_pair_cover, partition_from_cover)
from .geom import (Disk, HullDecomposition, Point, hull_decomposition,
                   orientation, point, point_in_hull, segments_cross,
                   smallest_enclosing_disk, sq_dist)
from .instances import (circulant_graph, gen_circulant, gen_cs,
                        gen_two_cluster, read_graph, read_instance,
                        write_graph, write_instance)
from .matching import (AuditReport, Coloring, GallaiEdmonds, Matching,
                       audit_bound, color_via_complement_matching,
                       gallai_edmonds, max_matching, sweep_greedy_color)
from .oracles import (DEFAULT_LIMITS, GraphStats, OracleLimits,
                      brute_cover_exists, brute_stats, check_k16_free,
                      check_nbhprop, max_independent_set, verify_cover,
                      verify_coloring)

__all__ = [name for name in dir() if not name.startswith("_")]
