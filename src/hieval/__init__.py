"""Post-hoc hierarchical ensembling and hierarchy-aware evaluation.

Operates on exported score matrices and a label hierarchy, never on models:
combine fine-grained probabilities with coarse-grained ones, rerank by
expected LCA-height cost, and score predictions with hierarchy-aware metrics.

Importing the package loads no submodule, so that ``hieval.cli`` can pin the
numerical libraries to one thread before numpy loads. Import each function
from the module that defines it.
"""

__version__ = "0.1.0"
