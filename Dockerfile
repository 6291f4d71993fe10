# The serving image: `repro serve` with durable multi-tenant storage on
# a mounted volume.
#
#   docker build -t repro-serve .
#   docker run -p 8080:8080 -v repro-data:/data repro-serve
#
# The package has no hard dependencies, so the image is just the
# source tree on a slim Python base — no pip round trip to break the
# build offline.

FROM python:3.12-slim

WORKDIR /app
COPY src/ /app/src/
ENV PYTHONPATH=/app/src \
    PYTHONUNBUFFERED=1

VOLUME /data
EXPOSE 8080

# SIGTERM triggers the graceful drain: in-flight requests finish and
# the dataset store is checkpointed before exit (WAL folded away)
STOPSIGNAL SIGTERM

CMD ["python", "-m", "repro", "serve", \
     "--host", "0.0.0.0", "--port", "8080", "--data-dir", "/data"]
