"""The Tin mini-language front end (stands in for Modula-2 / C)."""

from .. import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, globals(), {
    ".codegen": ("finalize_frames", "generate"),
    ".lexer": ("tokenize",),
    ".parser": ("parse",),
    ".semantics": ("ModuleInfo", "ProcInfo", "VarInfo", "check"),
})

__all__ = [
    "ModuleInfo",
    "ProcInfo",
    "VarInfo",
    "ast",
    "check",
    "finalize_frames",
    "generate",
    "parse",
    "tokenize",
]
