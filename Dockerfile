# The serving image: `repro serve` with durable multi-tenant storage on
# a mounted volume.
#
#   docker build -t repro-serve .
#   docker run -p 8080:8080 -v repro-data:/data repro-serve
#
# The package is installed from its own metadata; it has no runtime
# dependencies, so the install needs only setuptools from the base
# image's pip (build isolation still fetches it from a package index).

FROM python:3.12-slim

WORKDIR /app
COPY pyproject.toml setup.py README.md /app/
COPY src/ /app/src/
RUN pip install --no-cache-dir /app
ENV PYTHONUNBUFFERED=1

VOLUME /data
EXPOSE 8080

# SIGTERM triggers the graceful drain: in-flight requests finish and
# the dataset store is checkpointed before exit (WAL folded away)
STOPSIGNAL SIGTERM

CMD ["python", "-m", "repro", "serve", \
     "--host", "0.0.0.0", "--port", "8080", "--data-dir", "/data"]
