"""The kernel module and its name, for callers that import them from here.

The package has one kernel set, conelab._kernels; its own modules import it
directly.
"""

from conelab import _kernels as kernels

backend_name = "python"
