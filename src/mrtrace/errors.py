"""Exception types shared across the toolkit."""


class MRTraceError(Exception):
    """Base class for every error raised by this package."""


class MalformedRecord(MRTraceError):
    """A trace line could not be parsed into a valid job record."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class MissingRequiredField(MRTraceError):
    """job_id or submit_time absent from a record."""

    def __init__(self, line_no: int, field: str):
        super().__init__(f"line {line_no}: missing required field {field!r}")
        self.line_no = line_no
        self.field = field


class EmptyTrace(MRTraceError):
    """Trace source contained zero records."""


class EmptyPath(MRTraceError):
    """hash_path called with an empty path."""


class NoData(MRTraceError):
    """The dimension(s) an analysis needs are absent from every record."""


class InsufficientData(MRTraceError):
    """Too few points for the requested fit."""


class InvalidBucketWidth(MRTraceError):
    """Bucket width must be a positive number of seconds."""


class MedianZero(MRTraceError):
    """Series median is zero, or so small that a ratio to it overflows a
    float; ratios are undefined. Coarsen the buckets."""


class ZeroVariance(MRTraceError):
    """A series is constant; correlation is undefined."""


class TooShort(MRTraceError):
    """Series has too few buckets for spectral analysis."""


class KTooLarge(MRTraceError):
    """Requested more clusters than there are rows."""


class NoCompleteJobs(MRTraceError):
    """No job carries every dimension the workload model needs."""


class SpanTooLong(MRTraceError):
    """Requested replay span exceeds the source trace span, or that span
    exceeds the int64 submit times of a workload."""


class ScaledValueTooLarge(MRTraceError):
    """Scaling a job for the target cluster gives a value no trace file holds."""


class TooManyBuckets(MRTraceError):
    """A time series would need more buckets than one series may hold."""


class UnsortedStream(MRTraceError):
    """Access events must be sorted by time."""


class WriteTimeOverflow(MRTraceError):
    """A job's write time, submit_time + duration, does not fit a 64-bit integer."""


class SimTimeOverflow(MRTraceError):
    """A simulated time in integer microseconds does not fit a 64-bit integer."""


class SumOverflow(MRTraceError):
    """A sum of task-seconds, of a time series or of the jobs' name
    weights, does not fit a 64-bit float."""
