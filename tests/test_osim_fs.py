"""Tests for the in-memory filesystem."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.osim.fs import SimFileSystem, normalize
from repro.util.errors import FileSystemError


@pytest.fixture()
def fs():
    return SimFileSystem()


class TestNormalize:
    def test_plain(self):
        assert normalize("/etc/passwd") == "/etc/passwd"

    def test_collapses_dots_and_slashes(self):
        assert normalize("/etc//./ssl/../passwd") == "/etc/passwd"

    def test_root(self):
        assert normalize("/") == "/"
        assert normalize("/..") == "/"

    def test_relative_rejected(self):
        with pytest.raises(FileSystemError):
            normalize("etc/passwd")

    @staticmethod
    def _reference(path: str) -> str:
        """The component-walking algorithm, without the fast path."""
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

    @given(st.lists(st.sampled_from(["", ".", "..", ".x", "x.", "x"]),
                    max_size=8),
           st.booleans())
    @settings(max_examples=400)
    def test_matches_reference(self, parts, trailing):
        path = "/" + "/".join(parts) + ("/" if trailing else "")
        assert normalize(path) == self._reference(path)
        assert normalize(normalize(path)) == normalize(path)


class TestFiles:
    def test_write_read_roundtrip(self, fs):
        fs.write_file("/etc/motd", b"welcome")
        assert fs.read_file("/etc/motd") == b"welcome"

    def test_write_creates_parents(self, fs):
        fs.write_file("/usr/share/doc/pkg/README", b"x")
        assert fs.isdir("/usr/share/doc/pkg")

    def test_read_missing_raises(self, fs):
        with pytest.raises(FileSystemError):
            fs.read_file("/nope")

    def test_overwrite_replaces_content(self, fs):
        fs.write_file("/f", b"one")
        fs.write_file("/f", b"two")
        assert fs.read_file("/f") == b"two"

    def test_overwrite_clears_xattrs(self, fs):
        fs.write_file("/f", b"one")
        fs.set_xattr("/f", "security.ima", b"sig")
        fs.write_file("/f", b"two")
        assert fs.get_xattr("/f", "security.ima") is None

    def test_append(self, fs):
        fs.write_file("/f", b"a")
        fs.append_file("/f", b"b")
        assert fs.read_file("/f") == b"ab"

    def test_append_to_missing_creates(self, fs):
        fs.append_file("/f", b"start")
        assert fs.read_file("/f") == b"start"

    def test_touch_creates_empty(self, fs):
        fs.touch("/var/run/lock")
        assert fs.read_file("/var/run/lock") == b""

    def test_touch_preserves_existing(self, fs):
        fs.write_file("/f", b"keep")
        fs.touch("/f")
        assert fs.read_file("/f") == b"keep"

    def test_mode(self, fs):
        fs.write_file("/bin/tool", b"#!", mode=0o755)
        assert fs.file_mode("/bin/tool") == 0o755
        fs.chmod("/bin/tool", 0o500)
        assert fs.file_mode("/bin/tool") == 0o500

    def test_write_directory_path_rejected(self, fs):
        fs.mkdir("/etc")
        with pytest.raises(FileSystemError):
            fs.write_file("/etc", b"nope")

    def test_non_bytes_content_rejected(self, fs):
        with pytest.raises(FileSystemError):
            fs.write_file("/f", "text")  # type: ignore[arg-type]


class TestDirectories:
    def test_mkdir_and_listing(self, fs):
        fs.mkdir("/etc")
        fs.write_file("/etc/passwd", b"")
        fs.write_file("/etc/group", b"")
        assert fs.list_dir("/etc") == ["group", "passwd"]

    def test_mkdir_missing_parent_rejected(self, fs):
        with pytest.raises(FileSystemError):
            fs.mkdir("/a/b/c")

    def test_mkdir_parents(self, fs):
        fs.mkdir("/a/b/c", parents=True)
        assert fs.isdir("/a/b/c")

    def test_mkdir_existing_rejected(self, fs):
        fs.mkdir("/a")
        with pytest.raises(FileSystemError):
            fs.mkdir("/a")

    def test_mkdir_parents_idempotent(self, fs):
        fs.mkdir("/a/b", parents=True)
        fs.mkdir("/a/b", parents=True)
        assert fs.isdir("/a/b")

    def test_remove_empty_dir(self, fs):
        fs.mkdir("/a")
        fs.remove("/a")
        assert not fs.exists("/a")

    def test_remove_nonempty_requires_recursive(self, fs):
        fs.write_file("/a/f", b"x")
        with pytest.raises(FileSystemError):
            fs.remove("/a")
        fs.remove("/a", recursive=True)
        assert not fs.exists("/a")

    def test_walk_files_sorted(self, fs):
        for path in ("/b/z", "/b/a", "/a", "/c/d/e"):
            fs.write_file(path, b"")
        assert fs.walk_files() == ["/a", "/b/a", "/b/z", "/c/d/e"]

    def test_walk_files_subtree(self, fs):
        fs.write_file("/x/1", b"")
        fs.write_file("/y/2", b"")
        assert fs.walk_files("/x") == ["/x/1"]


class TestSymlinks:
    def test_symlink_read_through(self, fs):
        fs.write_file("/lib/libssl.so.1.1", b"elf")
        fs.symlink("/lib/libssl.so.1.1", "/lib/libssl.so")
        assert fs.read_file("/lib/libssl.so") == b"elf"
        assert fs.issymlink("/lib/libssl.so")
        assert fs.readlink("/lib/libssl.so") == "/lib/libssl.so.1.1"

    def test_symlink_loop_detected(self, fs):
        fs.symlink("/b", "/a")
        fs.symlink("/a", "/b")
        with pytest.raises(FileSystemError):
            fs.read_file("/a")

    def test_symlink_existing_target_rejected(self, fs):
        fs.write_file("/f", b"")
        with pytest.raises(FileSystemError):
            fs.symlink("/x", "/f")

    def test_dangling_symlink_exists_false(self, fs):
        fs.symlink("/missing", "/link")
        assert not fs.exists("/link")
        assert fs.issymlink("/link")


class TestRename:
    def test_rename_file(self, fs):
        fs.write_file("/a", b"data")
        fs.rename("/a", "/b")
        assert not fs.exists("/a")
        assert fs.read_file("/b") == b"data"

    def test_rename_into_directory(self, fs):
        fs.write_file("/f", b"data")
        fs.mkdir("/dir")
        fs.rename("/f", "/dir")
        assert fs.read_file("/dir/f") == b"data"

    def test_rename_missing_rejected(self, fs):
        with pytest.raises(FileSystemError):
            fs.rename("/nope", "/b")


class TestXattrs:
    def test_set_get_roundtrip(self, fs):
        fs.write_file("/bin/sh", b"#!")
        fs.set_xattr("/bin/sh", "security.ima", b"\x03sig")
        assert fs.get_xattr("/bin/sh", "security.ima") == b"\x03sig"
        assert fs.list_xattrs("/bin/sh") == {"security.ima": b"\x03sig"}

    def test_missing_xattr_is_none(self, fs):
        fs.write_file("/f", b"")
        assert fs.get_xattr("/f", "security.ima") is None

    def test_xattr_on_directory_rejected(self, fs):
        fs.mkdir("/d")
        with pytest.raises(FileSystemError):
            fs.set_xattr("/d", "security.ima", b"x")


class TestHooks:
    def test_open_hook_fires_on_read(self, fs):
        seen = []
        fs.install_open_hook(lambda path, node: seen.append(path))
        fs.write_file("/etc/passwd", b"root")
        fs.read_file("/etc/passwd")
        fs.read_file("/etc/passwd")
        assert seen == ["/etc/passwd", "/etc/passwd"]

    def test_open_hook_can_veto(self, fs):
        def veto(path, node):
            raise FileSystemError(f"appraisal denied {path}")

        fs.write_file("/f", b"x")
        fs.install_open_hook(veto)
        with pytest.raises(FileSystemError):
            fs.read_file("/f")

    def test_write_hook_fires(self, fs):
        seen = []
        fs.install_write_hook(lambda path, node: seen.append(path))
        fs.write_file("/a", b"1")
        fs.append_file("/a", b"2")
        assert seen == ["/a", "/a"]


class TestPropertyBased:
    @given(st.lists(
        st.text(st.characters(min_codepoint=97, max_codepoint=122),
                min_size=1, max_size=8),
        min_size=1, max_size=6, unique=True,
    ), st.binary(max_size=100))
    @settings(max_examples=40)
    def test_write_then_read_any_path(self, segments, content):
        fs = SimFileSystem()
        path = "/" + "/".join(segments)
        fs.write_file(path, content)
        assert fs.read_file(path) == content
        assert path in fs.walk_files()
