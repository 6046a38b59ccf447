"""Exception hierarchy shared by all ctrend modules."""


class CTError(Exception):
    """Base class for all ctrend errors."""


class EmptyCorpus(CTError):
    """No token survived tokenization / filtering."""


class NoBins(CTError):
    """A time axis with zero bins was requested."""


class BadWindow(CTError):
    """A time window with a non-positive bin width, or one that no document
    falls in."""


class AlreadyNormalized(CTError):
    """tf-idf normalization applied to an already normalized corpus."""


class FormatError(CTError):
    """A stored corpus / report does not match the expected schema."""


class UnknownFeed(CTError):
    """A feed id was referenced that the corpus does not contain."""


class DuplicateFeed(CTError):
    """A feed id was given more than once."""


class NotEnoughFeeds(CTError):
    """Pooling needs at least two feeds."""


class SeriesTooShort(CTError):
    """Time axis too short for the requested number of lags."""


class TooFewSamples(CTError):
    """Kernel construction needs at least two samples."""


class TooFewFolds(CTError):
    """Blocked cross-validation needs at least two folds."""


class TooShortForFolds(CTError):
    """Time axis too short to carve out the requested folds."""


class DegenerateProjection(CTError):
    """A projected series has zero variance."""


class NumericalFailure(CTError):
    """The eigensolve / SVD did not converge."""


class SingularRhs(CTError, ValueError):
    """Regularizer below the floor; the right-hand side would be singular."""


class BadKappa(CTError, ValueError):
    """A regularizer that is not a finite number."""


class ShapeMismatch(CTError):
    """Incompatible array shapes."""


class BadSeed(CTError, ValueError):
    """A random seed that is not a non-negative integer."""


class BadSetting(CTError, ValueError):
    """An analysis setting out of its range, such as an empty grid or feed
    list, or a worker count below one."""


class BadConfig(CTError):
    """A synthetic-data configuration violates its bounds."""
