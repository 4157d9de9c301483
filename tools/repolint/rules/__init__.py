"""Rule modules, imported in rule-id order so the registry reports
RF01, RF02, VL01, RN01, EK01, DL01, UQ01 consistently."""

from . import rf_fingerprints  # noqa: F401  (RF01, RF02)
from . import vl_vectorization  # noqa: F401  (VL01)
from . import rn_rng  # noqa: F401  (RN01)
from . import ek_env_knobs  # noqa: F401  (EK01)
from . import dl_doc_links  # noqa: F401  (DL01)
from . import uq_unique  # noqa: F401  (UQ01)
