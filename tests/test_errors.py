import re
from pathlib import Path

from network_spectra import errors


def test_every_error_class_is_raised_or_caught():
    """A class exists only when code catches it by type or the CLI prints its name;
    a class that no code raises or catches tells no caller anything."""
    source = "\n".join(p.read_text() for p in sorted(Path(errors.__file__).parent.glob("*.py")))
    classes = [name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == errors.__name__]
    assert len(classes) == 8
    for name in classes:
        assert re.search(rf"^\s*(raise {name}\(|except\b.*\b{name}\b)", source, re.M), name
