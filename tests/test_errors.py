"""Every benchsel error survives pickling, which is how a search worker
hands its error to the parent process."""

import inspect
import pickle

import pytest

from benchsel import errors
from benchsel.errors import SingularMatrixError
from benchsel.search import _block_results

# Constructor arguments for every error class the module defines.
EXAMPLES = {
    errors.BenchselError: ("base",),
    errors.SchemaError: ("scores.csv line 3: bad number",),
    errors.ValidationError: ("folds must be >= 2",),
    errors.DuplicateEnvironmentError: ("Pong", "pong", 7),
    errors.EnvironmentLookupError: ("Pong",),
    errors.DegenerateDataError: ("too few algorithms",),
    errors.UndefinedRelativeError: ("true value is 0",),
    errors.SingularMatrixError: ("Pong",),
    errors.EmptySearchError: ("no viable candidate", {"scored": 0}),
}


def test_examples_cover_every_error_class():
    defined = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.BenchselError)}
    assert defined == set(EXAMPLES)


@pytest.mark.parametrize("cls, args", [
    *EXAMPLES.items(),
    (errors.EnvironmentLookupError, ("Pong", "missing log score for Pong")),
    (errors.SingularMatrixError, ("intercept", "custom message")),
], ids=lambda v: v.__name__ if isinstance(v, type) else f"{len(v)}args")
def test_round_trip_keeps_type_message_and_attributes(cls, args):
    exc = cls(*args)
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is cls
    assert str(copy) == str(exc)
    assert copy.args == exc.args
    assert vars(copy) == vars(exc)


def test_worker_error_reaches_caller_unchanged(monkeypatch):
    # The caller scores the first span. The forked worker inherits the
    # patched module, so it raises on the second span and pickles its error
    # back to the caller.
    def score(ctx, start, stop):
        if start == 1:
            raise SingularMatrixError("Pong")
        return start

    monkeypatch.setattr("benchsel.search._score_block", score)
    consumed = []
    with pytest.raises(SingularMatrixError) as caught:
        for result in _block_results(None, [(0, 1), (1, 2), (2, 3)], 2):
            consumed.append(result)
    assert type(caught.value) is SingularMatrixError
    assert str(caught.value) == str(SingularMatrixError("Pong"))
    assert caught.value.column == "Pong"
    assert consumed == [0]
