"""String similarity self-join (SSJ) engines over online compressed indexes."""

from .base import JoinStats
from .brute import brute_edit_distance_join, brute_similarity_join
from .count import CountFilterJoin
from .edcount import EDCountFilterJoin
from .position import PositionFilterJoin
from .prefix import PrefixFilterJoin
from .rsjoin import PrefixFilterRSJoin
from .segment import SegmentFilterJoin, even_partition

#: the self-join filters by the name the CLI, the bench runners and the
#: report select them with
JOIN_FILTERS = {
    "count": CountFilterJoin,
    "prefix": PrefixFilterJoin,
    "position": PositionFilterJoin,
    "segment": SegmentFilterJoin,
    "edcount": EDCountFilterJoin,
}

__all__ = [
    "JOIN_FILTERS",
    "JoinStats",
    "CountFilterJoin",
    "EDCountFilterJoin",
    "PrefixFilterJoin",
    "PrefixFilterRSJoin",
    "PositionFilterJoin",
    "SegmentFilterJoin",
    "even_partition",
    "brute_similarity_join",
    "brute_edit_distance_join",
]
