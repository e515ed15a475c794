"""Re-export of the scalar closed-form path engine (a test oracle of the
lockstep Monte-Carlo engine) under the name the acceptance suite imports."""

from ._reference import closed_form_path  # noqa: F401
