"""A corrupted table of the Morse path, for the tests of its proofs."""

from confhom.critical import MorseMatching


def flip_y_table(patch, dim):
    """Make every MorseMatching compile one y table with `dim` occupied
    sites, the first it compiles, with the sign of its first face flipped;
    `patch` is setattr or a monkeypatch's.  Returns the list that receives
    the table's state part."""
    real = MorseMatching._compile
    flipped = []

    def compile_flipped(self, st):
        tests, faces = real(self, st)
        if len(faces) == 2 * dim and flipped in ([], [st]):
            flipped[:] = [st]
            (delta, w), *rest = faces
            faces = ((delta, -w), *rest)
        return tests, faces

    patch(MorseMatching, "_compile", compile_flipped)
    return flipped
