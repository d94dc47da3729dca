"""Shape-coding OCR for cursive script.

Pipeline: binarize -> thin -> segment into strokes -> decompose each
stroke into point/line/ellipse-arc primitives with Freeman relations ->
match primitive sequences against a per-font codebook.
"""

from .raster import (
    BinaryRaster,
    GrayRaster,
    RasterFormatError,
    Stroke,
    binarize,
    load_image,
    read_netpbm,
    segment,
    thin,
    write_pbm,
)
from .geomfit import (
    DegenerateInputError,
    EllipseArcCode,
    EllipseCoefficients,
    LineSegmentCode,
    Moments,
    NonEllipseError,
    NumericalFitError,
    PolarLine,
    arc_angles,
    conic_to_geometric,
    fit_ellipse,
    fit_line,
    point_line_distance,
    segment_extent,
)
from .encoder import (
    CodedElement,
    EncoderConfig,
    PointCode,
    SubWordCode,
    WordCode,
    WordEntry,
    encode_stroke,
    encode_word,
    freeman_direction,
    neighbor_directions,
    order_strokes,
    scale_subword,
    scale_word,
    word_from_json,
    word_to_json,
)
from .matcher import (
    MatchTolerances,
    arc_equiv,
    arc_subset,
    element_equiv,
    element_match,
    find_matches,
    freeman_sum,
    line_equiv,
    line_subset,
    sequence_equiv,
    sequence_subset,
)
from .codebook import (
    CharacterCode,
    Codebook,
    CodebookFormatError,
    ConnectivityTable,
    EmptyCommonError,
    Position,
    SubWordSpec,
    arabic_connectivity,
    build_codebook,
    build_fingerprints,
    enumerate_subwords,
    extract_common_code,
    identify_font,
    load_codebook,
    recognize,
    save_codebook,
)
from .config import EngineConfig, load_config, parse_config

__version__ = "0.1.0"
