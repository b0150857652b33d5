"""In-memory filesystem with permissions and extended attributes.

The tree holds three node kinds: files (content + mode + xattrs),
directories, and symlinks.  Integrity hooks subscribe to the *open* path —
that is where the kernel's IMA measures files before they reach memory —
and to writes, which lets tests assert measurement behaviour precisely.

Paths are absolute and normalized; parent directories must exist (except
via ``mkdir(parents=True)`` / ``write_file`` which creates parents, like a
package manager extracting an archive does).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.util.errors import FileSystemError

_MAX_SYMLINK_DEPTH = 8


@dataclass
class FileNode:
    content: bytes
    mode: int = 0o644
    xattrs: dict[str, bytes] = field(default_factory=dict)


@dataclass
class DirNode:
    children: dict[str, "Node"] = field(default_factory=dict)
    mode: int = 0o755


@dataclass
class SymlinkNode:
    target: str


Node = FileNode | DirNode | SymlinkNode

OpenHook = Callable[[str, FileNode], None]
WriteHook = Callable[[str, FileNode], None]


def normalize(path: str) -> str:
    """Normalize to an absolute path with no trailing slash (except root)."""
    if not path.startswith("/"):
        raise FileSystemError(f"path must be absolute: {path!r}")
    # Already normal (the common case): no empty, "." or ".." component
    # and no trailing slash.
    if "//" not in path and "/." not in path and (
            path == "/" or not path.endswith("/")):
        return path
    parts: list[str] = []
    for part in path.split("/"):
        if part in ("", "."):
            continue
        if part == "..":
            if parts:
                parts.pop()
            continue
        parts.append(part)
    return "/" + "/".join(parts)


class SimFileSystem:
    """The simulated VFS; satisfies :class:`repro.scripts.ScriptHost`."""

    def __init__(self):
        self._root = DirNode()
        self._open_hooks: list[OpenHook] = []
        self._write_hooks: list[WriteHook] = []

    # -- hooks ---------------------------------------------------------------

    def install_open_hook(self, hook: OpenHook):
        """Called with (path, node) on every file open; may raise to veto
        the open — this is where IMA-appraisal enforcement plugs in."""
        self._open_hooks.append(hook)

    def install_write_hook(self, hook: WriteHook):
        self._write_hooks.append(hook)

    def clear_hooks(self):
        """Detach every open/write hook.

        The hooks are bound methods of the IMA subsystem, which itself
        holds this filesystem — the only reference cycle in the node
        graph.  Breaking it here lets a torn-down node free by plain
        refcounting instead of waiting for a generational GC pass (a
        rotating 10^5-client fleet would otherwise hold thousands of
        retired node graphs between gen-2 collections).
        """
        self._open_hooks.clear()
        self._write_hooks.clear()

    # -- traversal -------------------------------------------------------------

    def _walk_to(self, path: str, *, follow: bool = True,
                 depth: int = 0) -> Node | None:
        if depth > _MAX_SYMLINK_DEPTH:
            raise FileSystemError(f"too many levels of symbolic links: {path}")
        path = normalize(path)
        node: Node = self._root
        if path == "/":
            return node
        parts = path[1:].split("/")
        for index, part in enumerate(parts):
            if isinstance(node, SymlinkNode):
                node = self._walk_to(node.target, depth=depth + 1)
            if not isinstance(node, DirNode):
                return None
            child = node.children.get(part)
            if child is None:
                return None
            node = child
        if follow and isinstance(node, SymlinkNode):
            resolved = self._walk_to(node.target, follow=True, depth=depth + 1)
            return resolved
        return node

    def _parent_of(self, path: str, create: bool = False) -> tuple[DirNode, str]:
        path = normalize(path)
        if path == "/":
            raise FileSystemError("cannot operate on the filesystem root")
        parent_path, _, name = path.rpartition("/")
        parent_path = parent_path or "/"
        node = self._walk_to(parent_path)
        if node is None:
            if not create:
                raise FileSystemError(f"no such directory: {parent_path}")
            self.mkdir(parent_path, parents=True)
            node = self._walk_to(parent_path)
        if not isinstance(node, DirNode):
            raise FileSystemError(f"not a directory: {parent_path}")
        return node, name

    # -- predicates ------------------------------------------------------------

    def exists(self, path: str) -> bool:
        return self._walk_to(path) is not None

    def isfile(self, path: str) -> bool:
        return isinstance(self._walk_to(path), FileNode)

    def isdir(self, path: str) -> bool:
        return isinstance(self._walk_to(path), DirNode)

    def issymlink(self, path: str) -> bool:
        return isinstance(self._walk_to(path, follow=False), SymlinkNode)

    # -- file operations ---------------------------------------------------------

    def read_file(self, path: str) -> bytes:
        """Open a file for reading; fires integrity open hooks."""
        node = self._walk_to(path)
        if node is None:
            raise FileSystemError(f"no such file: {path}")
        if not isinstance(node, FileNode):
            raise FileSystemError(f"not a regular file: {path}")
        for hook in self._open_hooks:
            hook(normalize(path), node)
        return node.content

    def write_file(self, path: str, data: bytes, mode: int | None = None):
        if not isinstance(data, (bytes, bytearray)):
            raise FileSystemError(f"file content must be bytes: {path}")
        parent, name = self._parent_of(path, create=True)
        existing = parent.children.get(name)
        if isinstance(existing, DirNode):
            raise FileSystemError(f"is a directory: {path}")
        if isinstance(existing, FileNode):
            existing.content = bytes(data)
            if mode is not None:
                existing.mode = mode
            # Overwriting drops xattrs: a fresh write invalidates any prior
            # integrity label, just like the kernel resets security.ima.
            existing.xattrs.clear()
            node = existing
        else:
            node = FileNode(content=bytes(data), mode=mode if mode is not None else 0o644)
            parent.children[name] = node
        for hook in self._write_hooks:
            hook(normalize(path), node)

    def append_file(self, path: str, data: bytes):
        node = self._walk_to(path)
        if node is None:
            self.write_file(path, data)
            return
        if not isinstance(node, FileNode):
            raise FileSystemError(f"not a regular file: {path}")
        node.content += bytes(data)
        node.xattrs.clear()
        for hook in self._write_hooks:
            hook(normalize(path), node)

    def touch(self, path: str):
        if self.exists(path):
            return
        self.write_file(path, b"")

    def remove(self, path: str, recursive: bool = False):
        parent, name = self._parent_of(path)
        node = parent.children.get(name)
        if node is None:
            raise FileSystemError(f"no such file or directory: {path}")
        if isinstance(node, DirNode) and node.children and not recursive:
            raise FileSystemError(f"directory not empty: {path}")
        del parent.children[name]

    def mkdir(self, path: str, parents: bool = False):
        path = normalize(path)
        if path == "/":
            return
        parent_path, _, name = path.rpartition("/")
        parent_path = parent_path or "/"
        parent = self._walk_to(parent_path)
        if parent is None:
            if not parents:
                raise FileSystemError(f"no such directory: {parent_path}")
            self.mkdir(parent_path, parents=True)
            parent = self._walk_to(parent_path)
        if not isinstance(parent, DirNode):
            raise FileSystemError(f"not a directory: {parent_path}")
        existing = parent.children.get(name)
        if existing is not None:
            if isinstance(existing, DirNode) and parents:
                return
            raise FileSystemError(f"file exists: {path}")
        parent.children[name] = DirNode()

    def symlink(self, target: str, link: str):
        parent, name = self._parent_of(link, create=True)
        if name in parent.children:
            raise FileSystemError(f"file exists: {link}")
        parent.children[name] = SymlinkNode(target=target)

    def readlink(self, path: str) -> str:
        node = self._walk_to(path, follow=False)
        if not isinstance(node, SymlinkNode):
            raise FileSystemError(f"not a symlink: {path}")
        return node.target

    def chmod(self, path: str, mode: int):
        node = self._walk_to(path)
        if node is None:
            raise FileSystemError(f"no such file or directory: {path}")
        if isinstance(node, SymlinkNode):
            raise FileSystemError(f"cannot chmod a symlink: {path}")
        node.mode = mode

    def rename(self, src: str, dst: str):
        src_parent, src_name = self._parent_of(src)
        node = src_parent.children.get(src_name)
        if node is None:
            raise FileSystemError(f"no such file or directory: {src}")
        dst_parent, dst_name = self._parent_of(dst, create=True)
        existing = dst_parent.children.get(dst_name)
        if isinstance(existing, DirNode):
            dst_parent = existing
            dst_name = src_name
        del src_parent.children[src_name]
        dst_parent.children[dst_name] = node

    # -- xattrs ------------------------------------------------------------------

    def set_xattr(self, path: str, name: str, value: bytes):
        node = self._walk_to(path)
        if not isinstance(node, FileNode):
            raise FileSystemError(f"xattrs only supported on files: {path}")
        node.xattrs[name] = bytes(value)

    def get_xattr(self, path: str, name: str) -> bytes | None:
        node = self._walk_to(path)
        if not isinstance(node, FileNode):
            raise FileSystemError(f"xattrs only supported on files: {path}")
        return node.xattrs.get(name)

    def list_xattrs(self, path: str) -> dict[str, bytes]:
        node = self._walk_to(path)
        if not isinstance(node, FileNode):
            raise FileSystemError(f"xattrs only supported on files: {path}")
        return dict(node.xattrs)

    # -- introspection --------------------------------------------------------------

    def list_dir(self, path: str) -> list[str]:
        node = self._walk_to(path)
        if not isinstance(node, DirNode):
            raise FileSystemError(f"not a directory: {path}")
        return sorted(node.children)

    def file_mode(self, path: str) -> int:
        node = self._walk_to(path)
        if node is None or isinstance(node, SymlinkNode):
            raise FileSystemError(f"no such file or directory: {path}")
        return node.mode

    def walk_files(self, start: str = "/") -> list[str]:
        """All regular-file paths under ``start`` in sorted order."""
        node = self._walk_to(start)
        if node is None:
            raise FileSystemError(f"no such directory: {start}")
        found: list[str] = []

        def recurse(prefix: str, current: Node):
            if isinstance(current, FileNode):
                found.append(prefix or "/")
            elif isinstance(current, DirNode):
                for name in sorted(current.children):
                    recurse(f"{prefix}/{name}", current.children[name])

        start = normalize(start)
        recurse("" if start == "/" else start, node)
        return found
