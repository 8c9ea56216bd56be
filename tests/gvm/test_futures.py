"""Future tests (paper Section 2): transparency, touch, pcall, executors."""

import threading

import pytest

from repro.gvm.futures import (
    GozerFuture,
    SynchronousFutureExecutor,
    ThreadPoolFutureExecutor,
    force,
    is_fiber_thread,
)
from repro.lang.errors import GozerRuntimeError
from repro.gvm.conditions import UnhandledConditionError
from repro.lang.symbols import Keyword, Symbol


class TestGozerFuture:
    def test_determination(self):
        f = GozerFuture("t")
        assert not f.determined
        f._determine(5)
        assert f.determined
        assert f.touch() == 5

    def test_failure_reraised_at_touch(self):
        f = GozerFuture("t")
        f._fail(ValueError("boom"))
        with pytest.raises(ValueError):
            f.touch()

    def test_touch_timeout(self):
        f = GozerFuture("t")
        with pytest.raises(GozerRuntimeError):
            f.touch(timeout=0.01)

    def test_force_passthrough(self):
        assert force(42) == 42
        f = GozerFuture("t")
        f._determine("x")
        assert force(f) == "x"

    def test_pickle_as_determined_value(self):
        import pickle

        f = GozerFuture("t")
        f._determine([1, 2])
        clone = pickle.loads(pickle.dumps(f))
        assert isinstance(clone, GozerFuture)
        assert clone.determined
        assert clone.touch() == [1, 2]


class TestLanguageLevelFutures:
    def test_future_returns_future_object(self, rt):
        value = rt.eval_string("(future 42)")
        assert isinstance(value, GozerFuture)

    def test_touch_gets_value(self, rt):
        assert rt.eval_string("(touch (future (* 6 7)))") == 42

    def test_future_transparent_to_arithmetic(self, rt):
        """Passing a future to a builtin determines it (Section 4.1)."""
        assert rt.eval_string("(+ 1 (future 2))") == 3

    def test_futures_in_data_structures(self, rt):
        """Futures can be stored in data structures and mixed freely."""
        assert rt.eval_string("""
            (let ((xs (list (future 1) 2 (future 3))))
              (apply #'+ xs))""") == 6

    def test_par_sum_squares_listing1(self, rt):
        """The paper's Listing 1 par-sum-squares."""
        rt.eval_string("""
            (defun par-sum-squares (numbers)
              (apply #'+
                (loop for number in numbers
                      collect (future (* number number)))))""")
        assert rt.eval_string("(par-sum-squares (list 1 2 3 4 5))") == 55

    def test_future_captures_lexical_scope(self, rt):
        assert rt.eval_string("""
            (let ((x 10)) (touch (future (* x x))))""") == 100

    def test_pcall_forces_arguments(self, rt):
        assert rt.eval_string("""
            (pcall #'list (future 1) (future 2) 3)""") == [1, 2, 3]

    def test_futurep_predicate(self, rt):
        assert rt.eval_string("(futurep (future 1))") is True
        assert rt.eval_string("(futurep 1)") is False

    def test_determined_p_non_future_always(self, rt):
        """'Any value that is not a future is always said to be
        determined' (Section 2)."""
        assert rt.eval_string("(determined-p 5)") is True

    def test_future_error_propagates_at_touch(self, rt):
        with pytest.raises(UnhandledConditionError):
            rt.eval_string('(touch (future (error "inside")))')

    def test_nested_futures(self, rt):
        assert rt.eval_string(
            "(touch (touch (future (future 5))))") == 5

    def test_is_fiber_thread_false_inside_future(self, rt):
        """Futures run with background-thread semantics even on the
        synchronous executor."""
        assert rt.eval_string("(touch (future (% is-fiber-thread)))") is False


class TestThreadedExecution:
    def test_real_parallel_execution(self, threaded_rt):
        value = threaded_rt.eval_string("""
            (apply #'+ (loop for i from 1 to 20 collect (future (* i i))))""")
        assert value == 2870

    def test_threaded_future_really_concurrent(self, threaded_rt):
        """Two futures that each wait on a shared barrier can only finish
        if they truly run in parallel."""
        barrier = threading.Barrier(2, timeout=5)
        threaded_rt.global_env.define(
            __import__("repro.lang.symbols", fromlist=["Symbol"]).Symbol("hit-barrier"),
            lambda: barrier.wait())
        value = threaded_rt.eval_string("""
            (let ((a (future (hit-barrier) 1))
                  (b (future (hit-barrier) 2)))
              (+ (touch a) (touch b)))""")
        assert value == 3

    def test_executor_shutdown_rejects_new_work(self):
        executor = ThreadPoolFutureExecutor(max_workers=1)
        executor.shutdown()
        with pytest.raises(GozerRuntimeError):
            executor.submit(lambda: 1)


class TestSynchronousExecutor:
    def test_runs_inline(self):
        executor = SynchronousFutureExecutor()
        f = executor.submit(lambda: 99)
        assert f.determined
        assert f.touch() == 99
        assert executor.submitted == 1

    def test_failure_stored(self):
        executor = SynchronousFutureExecutor()
        f = executor.submit(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            f.touch()


class _DetermineWhenPickled:
    """Determines ``future`` as a pickle passes it, the way a future
    finishing on another thread mid-capture would."""

    def __init__(self, future, acc):
        self.future, self.acc = future, acc

    def __reduce__(self):
        if not self.future.determined:
            self.acc.append(1)
            self.future._determine(True)
        return (list, ())


class TestCaptureDeterminesFutures:
    """Section 4.1: "the continuation doesn't become available until all
    futures have completed" — capture pickles the state, and pickling a
    future touches it, wherever in the state it sits."""

    @staticmethod
    def _capture(stack, env):
        from repro.gvm.continuations import capture, materialize
        from repro.gvm.frames import Frame
        from repro.lang.bytecode import CodeObject

        frame = Frame(CodeObject("probe"), env)
        frame.stack.extend(stack)
        frames, _handlers, _restarts, _dynamics = materialize(
            capture([frame], [], [], {}))
        return frames[0]

    @pytest.mark.parametrize("place", ["list", "closure-env", "parent-env"])
    def test_future_captured_determined(self, place):
        from repro.gvm.environment import Env
        from repro.gvm.frames import GozerFunction
        from repro.lang.bytecode import CodeObject

        release = threading.Event()
        executor = ThreadPoolFutureExecutor(max_workers=1)
        try:
            future = executor.submit(lambda: release.wait(5) and 42)
            assert not future.determined
            threading.Timer(0.05, release.set).start()
            name = Symbol("f")
            if place == "list":
                frame = self._capture([[1, [future]]], Env())
                restored = frame.stack[0][1][0]
            elif place == "closure-env":
                closure = GozerFunction(CodeObject("inner"),
                                        Env(bindings={name: future}))
                frame = self._capture([closure], Env())
                restored = frame.stack[0].closure.bindings[name]
            else:
                parent = Env(bindings={name: future})
                frame = self._capture([], parent.child())
                restored = frame.env.parent.bindings[name]
            assert future.determined
            assert isinstance(restored, GozerFuture)
            assert restored is not future
            assert restored.determined and restored.touch() == 42
        finally:
            executor.shutdown()

    def test_errored_future_raises_from_capture(self):
        from repro.gvm.environment import Env

        future = GozerFuture("bad")
        future._fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            self._capture([{"k": future}], Env())

    def test_capture_sees_side_effects_of_pending_futures(self):
        # acc is pickled before f is met; f then finishes and appends,
        # and the continuation must show that (Section 4.1)
        from repro.gvm.runtime import Runtime

        with Runtime(executor=ThreadPoolFutureExecutor(max_workers=1)) as rt:
            suspended = rt.start(
                "(let* ((acc (list 0))"
                "       (f (future (sleep 0.05) (append! acc 1))))"
                "  (yield)"
                "  acc)")
            assert rt.resume(suspended.continuation).value == [0, 1]

    def test_future_determined_during_capture_is_seen(self):
        from repro.gvm.environment import Env

        acc, future = [0], GozerFuture("late")
        frame = self._capture(
            [acc, _DetermineWhenPickled(future, acc), future], Env())
        assert frame.stack[0] == [0, 1]
        assert frame.stack[2].touch() is True

    def test_decoded_futures_count_as_determined_before(self):
        # encoding a continuation by value decodes it mid-pickle, which
        # makes fresh futures; they must not look freshly determined
        from repro.gvm.continuations import capture
        from repro.gvm.environment import Env
        from repro.gvm.frames import Frame
        from repro.gvm.registry import ProgramTable
        from repro.lang.bytecode import CodeObject

        future = GozerFuture("done")
        future._determine(7)
        frame = Frame(CodeObject("probe"), Env())
        frame.stack.append(future)
        continuation = capture([frame], [], [], {})
        encoded = []
        worker = threading.Thread(target=lambda: encoded.append(
            ProgramTable(by_identity=True).dumps(continuation)), daemon=True)
        worker.start()
        worker.join(10)
        assert encoded, "by-value encode did not finish"
