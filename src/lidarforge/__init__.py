"""lidarforge: forge mixed real-synthetic out-of-distribution LiDAR
datasets, score per-point anomalies on supplied features, and evaluate
anomaly segmentation."""

from .errors import (FormatError, LidarForgeError, PlacementInfeasibleError,
                     UndefinedMetricError, UnknownCategoryError, ValidationError)
from .insertion import (InsertionRecord, SplitPolicy, compose_scan, forge_scan,
                        forge_split, pick_placement, scan_seed)
from .intensity import estimate_normals, lambert_intensity, normalize_and_noise
from .losses import (loss_ce, loss_contrastive, loss_heads, loss_lovasz,
                     loss_objectosphere, loss_prototype, mean_class_features)
from .mesh_bank import (AnomalyObject, MeshBank, ReflectivityCatalog, TriangleMesh,
                        build_anomaly_object, load_off, load_target_heights, place,
                        sample_surface)
from .metrics import (EvalPair, auroc, average_precision, fpr_at_tpr, range_binned_ap,
                      split_metrics)
from .range_projection import RangeImage, point_ranges, project, write_pgm
from .scan_io import (LabelArray, PointCloud, SensorConfig, check_pair,
                      read_labels, read_scan, write_labels, write_scan)
from .scoring import (FeatureSet, PrototypeBank, ScoreVector, accumulate_prototypes,
                      classify, compute_scores, read_tensor, score_contrastive,
                      score_cosine, score_entropy, score_fused, score_semantic,
                      write_tensor)

__version__ = "0.1.0"
